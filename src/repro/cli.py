"""Command-line interface, mirroring the original tool's ``cli.py fuzz``.

Subcommands:

- ``fuzz``      run a fuzzing campaign against one target/contract;
- ``campaign``  run the same campaign sharded over N worker processes;
- ``sweep``     run a campaign grid over arch x contract x cpu;
- ``reproduce`` run a handwritten gadget from the gallery;
- ``trace``     print contract trace(s) of an assembly file;
- ``minimize``  fuzz until a violation, then postprocess it;
- ``replay``    re-run a counterexample corpus as a regression gate;
- ``serve``     serve the campaign job service over a local socket;
- ``list``      show available contracts, CPU presets, subsets, gadgets.

Examples::

    revizor fuzz -s AR+MEM+CB -c CT-SEQ --cpu skylake -n 200 -i 50
    revizor fuzz --arch aarch64 -s AR+MEM+CB -n 200 -i 50
    revizor campaign -s AR+MEM+CB -n 2000 --workers 8 --cache
    revizor sweep --arch x86_64,aarch64 --contract CT-SEQ,CT-COND \
        --cpu skylake,coffee-lake -n 100 --cache-dir /tmp/traces

``--arch`` selects the ISA backend (x86_64 default, aarch64); it is
plumbed through the campaign workers, so sharded campaigns fuzz the
selected backend too. All fuzzing subcommands accept the
contract-trace-cache knobs: ``--cache`` memoizes contract traces across
collections (pure-function results keyed by program/input/contract, see
:mod:`repro.core.trace_cache`) and ``--cache-dir`` selects the
persistent cross-process tier. ``campaign`` and ``sweep`` run their
shards on one pool of ``--workers`` processes; for budget-bound
full-mode runs the pool size never changes a deterministic report, only
``--shards`` does.

All fuzzing subcommands also accept ``--corpus-dir``: every confirmed
violation (and every minimized counterexample) is persisted into the
named directory as a self-contained replayable record
(:mod:`repro.corpus`); ``replay --corpus DIR`` re-detects every record
and exits nonzero on any regression (``--strict`` additionally rejects
unreadable records and empty corpora).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api, faults
from repro.arch import architecture_names, get_architecture
from repro.emulator.state import SandboxLayout
from repro.contracts import contract_names, get_contract
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import TestingPipeline
from repro.core.input_gen import InputGenerator
from repro.executor.modes import mode_names
from repro.gallery import GALLERY
from repro.uarch.config import preset_names


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _axis_list(text: str) -> List[str]:
    """Parse one comma-separated sweep axis, e.g. ``x86_64,aarch64``."""
    values = [value.strip() for value in text.split(",") if value.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def add_engine_options(
    parser: argparse.ArgumentParser,
    axes: bool = False,
    budget_default: int = 200,
) -> None:
    """The one declaration of every shared engine flag.

    fuzz/campaign/minimize use the scalar form; sweep passes
    ``axes=True`` for comma-separated ``--arch/--contract/--cpu`` axis
    lists (and its historical ``-n`` default). tools/check_docs.py
    gates that every fuzzing subcommand exposes exactly this flag set
    and that none of these flags is declared anywhere else.
    """
    if axes:
        parser.add_argument(
            "--arch", type=_axis_list, default=["x86_64"],
            help="comma-separated ISA backends, e.g. x86_64,aarch64",
        )
        parser.add_argument(
            "--contract", type=_axis_list, default=["CT-SEQ"],
            help="comma-separated contracts, e.g. CT-SEQ,CT-COND",
        )
        parser.add_argument(
            "--cpu", type=_axis_list, default=["skylake"],
            help="comma-separated CPU presets, e.g. skylake,coffee-lake",
        )
    else:
        parser.add_argument("--arch", default="x86_64",
                            choices=architecture_names(),
                            help="ISA backend under test")
        parser.add_argument("-c", "--contract", default="CT-SEQ",
                            help="contract name, e.g. CT-SEQ")
        parser.add_argument("--cpu", default="skylake",
                            help="CPU preset under test")
    parser.add_argument("-s", "--subsets", default="AR+MEM+CB",
                        help="instruction subsets, e.g. AR+MEM+CB")
    parser.add_argument("-m", "--mode", default="P+P",
                        help="executor mode (P+P, F+R, E+R, P+P+A, ...)")
    parser.add_argument("-n", "--num-test-cases", type=int,
                        default=budget_default,
                        help="test-case budget"
                        + (" per grid cell" if axes else ""))
    parser.add_argument("-i", "--inputs", type=int, default=50,
                        help="inputs per test case")
    parser.add_argument("-e", "--entropy", type=int, default=2,
                        help="PRNG entropy bits")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget in seconds"
                        + (" per shard" if axes else ""))
    parser.add_argument("--analyzer", default="subset",
                        choices=("subset", "strict"))
    parser.add_argument("--pages", type=int, default=1,
                        help="sandbox pages used by generated code")
    parser.add_argument("--prescreen", action="store_true",
                        help="skip test cases the static leak pre-screen "
                        "proves unable to violate (repro.analysis.prescreen)")
    parser.add_argument("--prescreen-safety-rate", type=int, default=20,
                        metavar="N",
                        help="still measure every Nth pre-screened case; a "
                        "violation on one of them fails the run (soundness "
                        "check; 0 disables sampling)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base PRNG seed"
                        + (" the per-cell seeds derive from" if axes else ""))
    parser.add_argument("--cache", action="store_true",
                        help="memoize contract traces across collections")
    parser.add_argument("--cache-dir", default=None,
                        help="directory of the persistent cross-process "
                        "trace cache (implies --cache); shared by campaign "
                        "shard workers, sweep cells and later runs")
    parser.add_argument("--corpus-dir", default=None,
                        help="persist every confirmed violation (and every "
                        "minimized counterexample) into this directory as a "
                        "replayable record (repro.corpus); replay it with "
                        "`replay --corpus DIR`")


def _add_journal_options(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume flags shared by campaign and sweep."""
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="checkpoint every completed shard into this journal "
        "directory (atomic publish; see docs/campaigns-and-sweeps.md); "
        "a killed run can be finished later with --resume DIR",
    )
    parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume from an existing journal: replay its completed "
        "shards and dispatch only the missing ones; the journal's "
        "recorded spec digest must match this invocation's grid/budget "
        "(a mismatch is a hard error)",
    )


def _journal_selection(args: argparse.Namespace):
    """Resolve --journal/--resume into (journal_dir, resume)."""
    if args.journal and args.resume:
        raise SystemExit(
            "pass either --journal DIR (start checkpointing) or "
            "--resume DIR (continue from checkpoints), not both"
        )
    if args.resume:
        return args.resume, True
    return args.journal, False


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run one fuzzing campaign; exit 1 when a violation is found."""
    report = api.run_fuzz(api.EngineOptions.from_args(args))
    print(report.summary())
    if report.found:
        print()
        print(report.violation.describe())
        return 1  # a violation is a nonzero exit, like grep finding a match
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one fuzzing budget sharded across worker processes.

    The budget (``-n``) is split into deterministic shards (per-shard
    seeds derived from ``--seed``), fanned out over ``--workers``
    processes, and the per-shard reports are merged: coverage is
    unioned, counters are summed, and the first violation wins with a
    stable tie-break. For budget-bound campaigns (no ``--timeout``),
    keeping ``--shards`` fixed while varying ``--workers`` reproduces
    the identical merged report at any level of parallelism; a
    ``--timeout`` bounds each shard's wall clock instead and gives up
    that invariance. ``--journal DIR`` checkpoints completed shards and
    ``--resume DIR`` finishes a killed run from its checkpoints. Exits
    1 when a violation is found, like ``fuzz``.
    """
    journal_dir, resume = _journal_selection(args)
    try:
        report = api.run_campaign(
            api.EngineOptions.from_args(args),
            workers=args.workers,
            shards=args.shards,
            mode="first-violation" if args.first_violation else "full",
            journal_dir=journal_dir,
            resume=resume,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(report.summary())
    for index, shard in enumerate(report.shard_reports):
        print(f"  shard {index}: {shard.summary()}")
    if journal_dir is not None:
        print(f"report digest: {report.report_digest()}")
    if report.found:
        print()
        print(report.violation.describe())
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a campaign grid over ``arch x contract x cpu``.

    Each grid cell is one sharded campaign (see ``campaign``) with a
    deterministic cell seed derived from ``--seed`` and the cell's
    (arch, contract) coordinates — cells along the cpu axis replay the
    identical test battery, so with ``--cache-dir`` they share contract
    traces through the persistent cache. All cells' shard-sized units
    drain from one shared queue on a pool of ``--workers`` processes, so
    idle workers take pending shards of expensive cells.
    ``--journal``/``--resume`` checkpoint and replay completed units.
    Prints the per-arch violation matrix; ``--json`` additionally writes
    the full report. Exits 1 when any cell surfaced a violation, like
    ``fuzz``.
    """
    options = api.EngineOptions.from_args(args, axes=True)
    journal_dir, resume = _journal_selection(args)
    cells = len(args.arch) * len(args.contract) * len(args.cpu)
    print(f"sweeping {cells} cells "
          f"({len(args.arch)} arch x {len(args.contract)} contract x "
          f"{len(args.cpu)} cpu) on a pool of {args.workers} worker(s)")

    def progress(cell, campaign):
        print(f"  {cell.label}: {campaign.merged.summary()}")

    try:
        report = api.run_sweep(
            options,
            arches=args.arch,
            contracts=args.contract,
            cpus=args.cpu,
            workers=args.workers,
            shards=args.shards,
            mode="first-violation" if args.first_violation else "full",
            total_budget=args.total_budget,
            journal_dir=journal_dir,
            resume=resume,
            progress=progress,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print()
    print(report.to_markdown())
    if journal_dir is not None:
        print(f"report digest: {report.report_digest()}")
    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nfull report written to {args.json}")
    return 1 if report.violations_found else 0


def run_minimize(args: argparse.Namespace):
    """Fuzz until a violation, then run the 3-stage postprocessor.

    Returns ``(fuzzing report, MinimizationResult or None)`` so corpus
    persistence and tests can consume the minimized counterexample as
    data; :func:`cmd_minimize` renders the same pair for the terminal.
    Thin wrapper over :func:`repro.api.run_minimize`, kept so existing
    importers keep working with a parsed namespace.
    """
    return api.run_minimize(api.EngineOptions.from_args(args))


def cmd_minimize(args: argparse.Namespace) -> int:
    """Fuzz until a violation, then minimize and print it."""
    report, result = run_minimize(args)
    print(report.summary())
    if result is None:
        return 0
    print(f"\nminimized ({result.original_instruction_count} -> "
          f"{result.instruction_count} instructions, "
          f"{result.fences_inserted} fences):")
    print(result.text)
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a counterexample corpus as a deterministic regression gate.

    Exit 0 when every replayable record PASSed; exit 1 on any FAIL or
    CHANGED (a detection-power or determinism regression), and — with
    ``--strict`` — also on any SKIP (unreadable or foreign-version
    record) or an empty corpus.
    """
    def progress(result):
        line = f"  {result.verdict:7s} {result.name}"
        if result.entry.record is not None:
            record = result.entry.record
            line += (f"  [{record.arch} {record.contract} {record.cpu}] "
                     f"{result.inputs} inputs, {result.seconds:.2f}s")
        if result.detail:
            line += f"\n          {result.detail}"
        print(line)

    print(f"replaying corpus {args.corpus} ...")
    report = api.run_replay(args.corpus, arch=args.arch, progress=progress)
    print(report.summary())
    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump({"corpus_replay": report.to_json()}, handle,
                       indent=2, sort_keys=True)
            handle.write("\n")
        print(f"corpus-replay report written to {args.json}")
    if args.strict:
        return 0 if report.strict_ok() else 1
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the campaign service over a local socket.

    Campaigns become requests instead of shell sessions: clients submit
    job specs over a line-JSON protocol (docs/service.md), poll status,
    and stream incremental violation records as cells complete. Port 0
    (the default) picks an ephemeral port, printed on startup.
    """
    from repro.service import CampaignService, ServiceServer

    service = CampaignService(
        max_parallel_jobs=args.jobs,
        max_queued_jobs=args.max_queued,
        state_dir=args.state_dir,
    )
    server = ServiceServer(
        service, host=args.host, port=args.port,
        heartbeat_s=args.heartbeat if args.heartbeat > 0 else None,
    )
    host, port = server.address
    print(f"campaign service listening on {host}:{port} "
          f"({args.jobs} parallel job(s); line-JSON protocol, "
          "see docs/service.md; Ctrl-C to stop)", flush=True)
    if service.recovered_jobs:
        print(f"recovered {len(service.recovered_jobs)} job(s) from "
              f"{args.state_dir}: {', '.join(service.recovered_jobs)}",
              flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        report = server.close()
        if report["running_jobs"]:
            print("still running at shutdown: "
                  + ", ".join(report["running_jobs"])
                  + (" (state saved for --state-dir recovery)"
                     if args.state_dir else ""))
        service.shutdown(wait=False)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run one handwritten gallery gadget through the detection pipeline."""
    try:
        entry = GALLERY[args.gadget]
    except KeyError:
        print(f"unknown gadget {args.gadget!r}; see `revizor list`",
              file=sys.stderr)
        return 2
    config = FuzzerConfig(
        arch=entry.arch,
        contract_name=entry.contract,
        cpu_preset=entry.cpu_preset,
        executor_mode=entry.executor_mode,
        analyzer_mode=entry.analyzer_mode,
        seed=11,
    )
    pipeline = TestingPipeline(config)
    generator = InputGenerator(seed=args.seed, entropy_bits=entry.entropy_bits,
                               layout=pipeline.layout,
                               registers=pipeline.arch.default_register_pool,
                               flag_bits=pipeline.arch.registers.flag_bits)
    print(f"{entry.name}: {entry.description}\n")
    print(pipeline.arch.render_program(entry.program(), numbered=True))
    count = 4
    while count <= args.max_inputs:
        inputs = generator.generate(count)
        candidate = pipeline.check_violation(entry.program(), inputs,
                                             confirm=True)
        if candidate is not None:
            print(f"\nviolation of {entry.contract} on {entry.cpu_preset} "
                  f"with {count} inputs:")
            print(candidate)
            return 1
        count *= 2
    print(f"\nno violation within {args.max_inputs} inputs "
          "(rare gadget or unlucky seed; retry with --seed)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print contract traces of an assembly file for a few random inputs."""
    arch = get_architecture(args.arch)
    with open(args.file) as handle:
        program = arch.parse_program(handle.read())
    contract = get_contract(args.contract)
    layout = SandboxLayout()
    generator = InputGenerator(seed=args.seed, entropy_bits=args.entropy,
                               layout=layout,
                               registers=arch.default_register_pool,
                               flag_bits=arch.registers.flag_bits)
    print(arch.render_program(program, numbered=True))
    print()
    for index, input_data in enumerate(generator.generate(args.inputs)):
        trace = contract.collect_trace(program, input_data, layout, arch)
        print(f"input #{index} (seed={input_data.seed}): {trace}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """List architectures, contracts, CPU presets, subsets and gadgets."""
    print("architectures:  " + ", ".join(architecture_names()))
    print("contracts:      " + ", ".join(contract_names()))
    print("CPU presets:    " + ", ".join(preset_names()))
    print("ISA subsets:    " + ", ".join(
        get_architecture("x86_64").subset_names()))
    print("executor modes: " + ", ".join(mode_names()))
    print("gadgets:")
    for name, entry in GALLERY.items():
        print(f"  {name:24s} {entry.vulnerability}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="revizor",
        description="Model-based relational testing of (simulated) CPUs "
        "against speculation contracts",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fuzz_parser = commands.add_parser("fuzz", help="run a fuzzing campaign")
    add_engine_options(fuzz_parser)
    fuzz_parser.set_defaults(handler=cmd_fuzz)

    campaign_parser = commands.add_parser(
        "campaign",
        help="run a fuzzing campaign sharded over worker processes",
    )
    add_engine_options(campaign_parser)
    campaign_parser.add_argument(
        "-w", "--workers", type=_positive_int, default=4,
        help="worker processes to fan shards out over",
    )
    campaign_parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="seed/budget shards (default: one per worker); fix this "
        "while varying --workers for identical merged results",
    )
    campaign_parser.add_argument(
        "--first-violation", action="store_true",
        help="cancel remaining shards once one finds a confirmed "
        "violation instead of draining the full budget",
    )
    _add_journal_options(campaign_parser)
    campaign_parser.set_defaults(handler=cmd_campaign)

    sweep_parser = commands.add_parser(
        "sweep",
        help="run a campaign grid over arch x contract x cpu",
    )
    add_engine_options(sweep_parser, axes=True, budget_default=100)
    sweep_parser.add_argument(
        "--total-budget", type=_positive_int, default=None,
        help="grid-wide budget split over the cells (overrides -n)",
    )
    sweep_parser.add_argument(
        "-w", "--workers", type=_positive_int, default=1,
        help="worker processes in the pool that runs every cell's shards",
    )
    sweep_parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="seed/budget shards per cell (default: one per worker); fix "
        "this while varying --workers for identical cell reports",
    )
    sweep_parser.add_argument(
        "--first-violation", action="store_true",
        help="cancel each cell's remaining shards at its first violation",
    )
    _add_journal_options(sweep_parser)
    sweep_parser.add_argument("--json", default=None, metavar="PATH",
                              help="write the full sweep report as JSON")
    sweep_parser.set_defaults(handler=cmd_sweep)

    minimize_parser = commands.add_parser(
        "minimize", help="fuzz until a violation, then minimize it"
    )
    add_engine_options(minimize_parser)
    minimize_parser.set_defaults(handler=cmd_minimize)

    replay_parser = commands.add_parser(
        "replay",
        help="re-run a counterexample corpus as a regression gate",
    )
    replay_parser.add_argument(
        "--corpus", required=True, metavar="DIR",
        help="corpus directory of replayable records (repro.corpus), "
        "e.g. the checked-in corpus/seed or a --corpus-dir output",
    )
    replay_parser.add_argument(
        "--strict", action="store_true",
        help="also exit nonzero on SKIPped (unreadable/foreign-version) "
        "records and on an empty corpus",
    )
    replay_parser.add_argument(
        "--arch", default=None, choices=architecture_names(),
        help="replay only the records targeting this ISA backend",
    )
    replay_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the corpus_replay report section as JSON "
        "(schema-checked by tools/check_bench_json.py)",
    )
    replay_parser.set_defaults(handler=cmd_replay)

    serve_parser = commands.add_parser(
        "serve",
        help="serve the campaign service over a local socket "
        "(line-JSON job protocol, see docs/service.md)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (loopback by default)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 picks an ephemeral port, "
        "printed on startup)",
    )
    serve_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="jobs allowed to run concurrently; excess submissions "
        "queue as pending",
    )
    serve_parser.add_argument(
        "--max-queued", type=int, default=None,
        help="bound on pending jobs beyond the running ones; a full "
        "queue rejects submits with a retry_after hint (default: "
        "unbounded)",
    )
    serve_parser.add_argument(
        "--state-dir", default=None,
        help="directory persisting the job table (atomic snapshots); "
        "a restarted serve recovers submitted jobs and resumes "
        "interrupted journaled campaigns",
    )
    serve_parser.add_argument(
        "--heartbeat", type=float, default=15.0,
        help="keepalive cadence in seconds for idle results streams "
        "(0 disables heartbeats)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    reproduce_parser = commands.add_parser(
        "reproduce", help="run a handwritten gadget from the gallery"
    )
    reproduce_parser.add_argument("gadget", help="gadget name (see `list`)")
    reproduce_parser.add_argument("--max-inputs", type=int, default=128)
    reproduce_parser.add_argument("--seed", type=int, default=42)
    reproduce_parser.set_defaults(handler=cmd_reproduce)

    trace_parser = commands.add_parser(
        "trace", help="print contract traces of an assembly file"
    )
    trace_parser.add_argument("file", help="assembly file (in the "
                              "--arch backend's syntax)")
    trace_parser.add_argument("--arch", default="x86_64",
                              choices=architecture_names(),
                              help="ISA backend the file targets")
    trace_parser.add_argument("-c", "--contract", default="CT-SEQ")
    trace_parser.add_argument("-i", "--inputs", type=int, default=3)
    trace_parser.add_argument("-e", "--entropy", type=int, default=2)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.set_defaults(handler=cmd_trace)

    list_parser = commands.add_parser("list", help="show available components")
    list_parser.set_defaults(handler=cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        faults.active_plan()  # parse REPRO_FAULTS once, before the run
    except (OSError, ValueError) as error:
        parser.error(f"fault plan from the environment: {error}")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
