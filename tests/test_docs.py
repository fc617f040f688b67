"""Documentation consistency: the tier-1 face of the CI docs job.

Runs the same four invariants as ``tools/check_docs.py`` — intra-repo
markdown links resolve, every docs page is reachable from
``docs/index.md``, the CLI subcommand list matches what
``docs/getting-started.md`` documents, and every ``--flag`` the docs
mention is registered on some subcommand."""

import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"),
)
import check_docs  # noqa: E402


@pytest.mark.parametrize("name", sorted(check_docs.CHECKS))
def test_docs_invariant(name):
    errors = check_docs.CHECKS[name]()
    assert not errors, "\n".join(errors)


def test_every_docs_page_is_scanned():
    scanned = check_docs.markdown_files()
    assert any(path.endswith("docs/index.md") for path in scanned)
    assert any(
        path.endswith("docs/getting-started.md") for path in scanned
    )
    assert any(
        path.endswith("docs/campaigns-and-sweeps.md") for path in scanned
    )
    assert any(path.endswith("docs/architectures.md") for path in scanned)


def test_documented_subcommands_cover_the_workflow():
    documented = check_docs.documented_subcommands()
    # the getting-started workflow must walk the full loop
    assert {"fuzz", "campaign", "sweep", "minimize", "list"} <= documented


def test_scheduler_and_gc_flags_are_registered():
    flags = check_docs.registered_flags()
    assert {"workers", "shards", "cache", "cache-dir"} <= flags
    # one scheduler: the pool size is --workers, nothing else
    assert not {"parallel-cells", "schedule"} & flags
    # two trace-cache settings: no LRU size, disk bound or compression
    assert not {"cache-entries", "cache-max-bytes", "cache-compress"} & flags
