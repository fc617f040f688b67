#!/usr/bin/env python
"""Documentation consistency checks (the CI docs job).

Five invariants, each also asserted by ``tests/test_docs.py``:

1. every intra-repo markdown link in ``docs/*.md`` (and the root
   markdown files) resolves to an existing file;
2. every page under ``docs/`` is reachable from ``docs/index.md`` by
   following intra-repo links;
3. the CLI and ``docs/getting-started.md`` agree on the subcommand
   list: every registered ``python -m repro`` subcommand is documented
   there, every ``python -m repro <sub>`` the page shows actually
   exists, and ``python -m repro <sub> --help`` runs cleanly for each
   registered subcommand;
4. every ``--flag`` mentioned anywhere under ``docs/`` is a registered
   option of some subcommand (so renamed or removed flags cannot
   linger in the prose);
5. the four fuzzing subcommands (fuzz/campaign/sweep/minimize) expose
   the shared engine flags exclusively through
   ``repro.cli.add_engine_options``: each subcommand carries the full
   flag set its variant owes, and every unambiguous engine-flag literal
   is declared exactly once in ``cli.py`` (no drift through
   copy-pasted ``add_argument`` calls).

Run from the repository root with ``src`` importable::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")

#: [text](target) — targets starting with a scheme or "#" are skipped
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: the CLI invocations getting-started documents
_CLI_COMMAND = re.compile(r"python -m repro(?:\.cli)?\s+([a-z][a-z-]*)")
#: long CLI options mentioned in docs prose/examples
_CLI_FLAG = re.compile(r"(?<![-\w])--([a-z][a-z-]+)")
#: flags of external tools the docs legitimately mention
_EXTERNAL_FLAGS = {"benchmark-only"}  # pytest-benchmark
#: subcommands that take the scalar engine-flag set
_SCALAR_ENGINE_SUBCOMMANDS = ("fuzz", "campaign", "minimize")
#: engine flags whose ``"--flag"`` literal may appear only once in
#: cli.py — inside add_engine_options.
#: (--arch/--contract/--cpu/--inputs/--entropy/--seed are excluded:
#: trace/reproduce/replay legitimately re-declare them.)
_DECLARED_ONCE_FLAGS = (
    "--subsets", "--mode", "--num-test-cases", "--timeout",
    "--analyzer", "--pages", "--prescreen", "--prescreen-safety-rate",
    "--cache", "--cache-entries", "--cache-dir", "--cache-max-bytes",
    "--cache-compress", "--corpus-dir",
)


def markdown_files() -> List[str]:
    """The root markdown files plus everything under docs/."""
    paths = [
        os.path.join(REPO_ROOT, name)
        for name in sorted(os.listdir(REPO_ROOT))
        if name.endswith(".md")
    ]
    for base, _dirs, files in os.walk(DOCS_DIR):
        paths.extend(
            os.path.join(base, name)
            for name in sorted(files)
            if name.endswith(".md")
        )
    return paths


def intra_repo_links(path: str) -> List[Tuple[str, str]]:
    """(raw target, resolved absolute path) of each intra-repo link."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    links = []
    for target in _LINK.findall(text):
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target.split("#", 1)[0])
        )
        links.append((target, resolved))
    return links


def check_links() -> List[str]:
    """Invariant 1: intra-repo markdown links resolve."""
    errors = []
    for path in markdown_files():
        for target, resolved in intra_repo_links(path):
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(path, REPO_ROOT)}: "
                    f"broken link ({target})"
                )
    return errors


def check_docs_reachable() -> List[str]:
    """Invariant 2: every docs page is reachable from docs/index.md."""
    index = os.path.join(DOCS_DIR, "index.md")
    if not os.path.exists(index):
        return ["docs/index.md is missing"]
    reachable: Set[str] = set()
    frontier = [index]
    while frontier:
        page = frontier.pop()
        if page in reachable:
            continue
        reachable.add(page)
        frontier.extend(
            resolved
            for _target, resolved in intra_repo_links(page)
            if resolved.startswith(DOCS_DIR) and resolved.endswith(".md")
            and os.path.exists(resolved)
        )
    return [
        f"docs/{os.path.relpath(path, DOCS_DIR)}: "
        "not reachable from docs/index.md"
        for path in markdown_files()
        if path.startswith(DOCS_DIR) and path not in reachable
    ]


def registered_subcommands() -> Set[str]:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return set(action.choices)
    return set()


def documented_subcommands() -> Set[str]:
    with open(
        os.path.join(DOCS_DIR, "getting-started.md"), encoding="utf-8"
    ) as handle:
        return set(_CLI_COMMAND.findall(handle.read()))


def check_cli_sync() -> List[str]:
    """Invariant 3: the CLI and getting-started agree on subcommands."""
    errors = []
    try:
        registered = registered_subcommands()
    except Exception as error:  # pragma: no cover - import failure
        return [f"could not load the CLI parser: {error!r}"]
    documented = documented_subcommands()
    for missing in sorted(registered - documented):
        errors.append(
            f"docs/getting-started.md: subcommand {missing!r} is not "
            "documented"
        )
    for phantom in sorted(documented - registered):
        errors.append(
            f"docs/getting-started.md: documents unknown subcommand "
            f"{phantom!r}"
        )
    env = {**os.environ,
           "PYTHONPATH": os.path.join(REPO_ROOT, "src")
           + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for subcommand in sorted(registered):
        result = subprocess.run(
            [sys.executable, "-m", "repro", subcommand, "--help"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        if result.returncode != 0:
            errors.append(
                f"`python -m repro {subcommand} --help` failed: "
                f"{result.stderr.strip()}"
            )
    return errors


def registered_flags() -> Set[str]:
    """Every long option of the parser and all its subcommands."""
    from repro.cli import build_parser

    parser = build_parser()
    flags: Set[str] = set()

    def collect(one_parser) -> None:
        for action in one_parser._actions:
            flags.update(
                option[2:]
                for option in action.option_strings
                if option.startswith("--")
            )
            if hasattr(action, "choices") and isinstance(
                action.choices, dict
            ):
                for sub in action.choices.values():
                    collect(sub)

    collect(parser)
    return flags


def check_cli_flags() -> List[str]:
    """Invariant 4: every --flag under docs/ exists on the CLI."""
    try:
        known = registered_flags()
    except Exception as error:  # pragma: no cover - import failure
        return [f"could not load the CLI parser: {error!r}"]
    errors = []
    for path in markdown_files():
        if not path.startswith(DOCS_DIR):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for flag in sorted(set(_CLI_FLAG.findall(text)) - _EXTERNAL_FLAGS):
            if flag not in known:
                errors.append(
                    f"docs/{os.path.relpath(path, DOCS_DIR)}: mentions "
                    f"--{flag}, which no subcommand registers"
                )
    return errors


def _long_flags(parser) -> Set[str]:
    """The long option strings one parser registers (minus --help)."""
    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(
            option for option in action.option_strings
            if option.startswith("--")
        )
    flags.discard("--help")
    return flags


def check_engine_flag_sync() -> List[str]:
    """Invariant 5: engine flags live only in add_engine_options."""
    import argparse

    try:
        from repro.cli import add_engine_options, build_parser
    except Exception as error:  # pragma: no cover - import failure
        return [f"could not load the CLI parser: {error!r}"]

    reference = argparse.ArgumentParser(add_help=False)
    add_engine_options(reference)
    engine_flags = _long_flags(reference)

    subparsers: Dict[str, argparse.ArgumentParser] = {}
    for action in build_parser()._subparsers._group_actions:
        subparsers = dict(action.choices)

    errors = []
    # sweep's axis variant registers the same long names, so one flag
    # set covers all four full-engine subcommands
    for name in _SCALAR_ENGINE_SUBCOMMANDS + ("sweep",):
        if name not in subparsers:
            errors.append(f"cli.py: subcommand {name!r} is missing")
            continue
        missing = engine_flags - _long_flags(subparsers[name])
        if missing:
            errors.append(
                f"cli.py: {name} lacks engine flag(s) "
                f"{', '.join(sorted(missing))}"
            )

    import repro.cli

    with open(repro.cli.__file__, encoding="utf-8") as handle:
        source = handle.read()
    literals = re.findall(r'"(--[a-z][a-z-]+)"', source)
    for flag in _DECLARED_ONCE_FLAGS:
        count = literals.count(flag)
        if count != 1:
            errors.append(
                f"cli.py: {flag} appears {count} times; it must be "
                "declared exactly once, inside add_engine_options"
            )
    return errors


CHECKS: Dict[str, object] = {
    "markdown links": check_links,
    "docs reachability": check_docs_reachable,
    "CLI/docs sync": check_cli_sync,
    "CLI flag sync": check_cli_flags,
    "engine flag sync": check_engine_flag_sync,
}


def main() -> int:
    failed = False
    for name, check in CHECKS.items():
        errors = check()
        status = "ok" if not errors else f"{len(errors)} problem(s)"
        print(f"{name}: {status}")
        for error in errors:
            print(f"  - {error}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
