"""Command-line entry point: simulate, train, eval, gradcheck.

Every command is deterministic given ``--seed`` and its inputs; no wall
clock or other entropy leaks into any output. Exit codes: 0 success,
1 usage (bad flags), 2 data error (malformed config/spec/dataset files,
hash mismatches), 3 numeric failure.

Config and simulation-spec files are flat ``key = value`` text; ``#``
starts a comment. Unknown keys are rejected so typos fail loudly. The
``UAL_LOG_LEVEL`` environment variable (error/info/debug) controls
stderr chatter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .datagen_metrics import (
    _HEADER_INTS,
    SynthesisSpec,
    _integer,
    generate_dataset,
    load_dataset,
    save_dataset,
    settings_from_mapping,
)
from .errors import ConfigError, DataError, NumericError, UalError
from .numerics import ParameterStore, SeededRng, check_dims, gradient_check, open_data_file
from .numerics import parse_json, read_text, text_lines
from .pipeline import (
    ABLATIONS,
    BRANCH_TAGS,
    FUSION_STRATEGIES,
    FaceBranch,
    ObjectBranch,
    TrainingConfig,
    build_branches,
    evaluate_dataset,
    register_branches,
    train_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

log = logging.getLogger("ual")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"error: {message}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record arrives."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _setup_logging() -> None:
    """Apply ``UAL_LOG_LEVEL`` to the ``ual`` logger; on every call, so that
    each in-process ``main()`` runs at its own level."""
    level_name = os.environ.get("UAL_LOG_LEVEL", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise SystemExit_(EXIT_USAGE, f"UAL_LOG_LEVEL must be error/info/debug, got {level_name!r}")
    if not log.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(handler)
        log.propagate = False  # the line is written here, not again by a root handler
    log.setLevel(levels[level_name])


def parse_kv_file(path) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' comments; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise DataError(f"{path}: line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _bundled(name: str):
    """The packaged ``ual/configs/<name>`` resource."""
    return resources.files("ual.configs").joinpath(name)


def _out_dir(path) -> Path:
    """``path`` as an existing directory, made if needed; a data error if it cannot be."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{out_dir}: cannot use as output directory: {exc}") from exc
    return out_dir


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open_data_file(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load(path):
    """``load_dataset(path)``, its wall time logged at debug level."""
    start = time.perf_counter()
    dataset = load_dataset(path)
    log.debug("load: %s, %d groups, %.3f s", path, len(dataset), time.perf_counter() - start)
    return dataset


def _settings(kind, path: str | None, bundled: str, flags: dict):
    """A validated ``kind`` from the file at ``path``, or the bundled file, with
    each flag that was given (not None) set as its key, as text, as a file sets it.
    An error names the file and the flags given, such as ``--epochs -1``."""
    given = {key: str(value) for key, value in flags.items() if value is not None}
    mapping = {**parse_kv_file(path or _bundled(bundled)), **given}
    source = str(path or f"bundled {bundled}")
    if given:
        source += " with " + " ".join(f"--{key.replace('_', '-')} {v}" for key, v in given.items())
    return settings_from_mapping(kind, mapping, source)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    spec = _settings(
        SynthesisSpec, args.spec, "synthetic-default.gen",
        {"seed": args.seed, "num_groups": args.num_groups, "partition": args.partition},
    )
    start = time.perf_counter()
    # features that overflow are refused, naming the group, by save_dataset
    with np.errstate(over="ignore", invalid="ignore"):
        dataset = generate_dataset(spec)
    generated = time.perf_counter()
    save_dataset(dataset, args.out)
    log.debug("simulate: generate %.3f s, save %.3f s",
              generated - start, time.perf_counter() - generated)
    log.info(
        "wrote %s: %d groups (%s)", args.out, len(dataset), json.dumps(dataset.synthesis_stats)
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _settings(
        TrainingConfig, args.config, "synthetic-default.cfg",
        {"seed": args.seed, "epochs": args.epochs},
    )
    train_ds = _load(args.train)
    val_ds = _load(args.val)
    dims = train_ds.dims
    check_dims(val_ds.dims, dims, f"{args.val}: line 1", f"the train set {args.train}")
    tags = BRANCH_TAGS if args.branch == "all" else (args.branch,)

    def on_epoch(epoch, breakdowns, eval_result):
        for tag, bd in breakdowns.items():
            loss_files[tag].write(
                f"{epoch},{bd.cls!r},{bd.kl!r},{bd.rank!r},{bd.rec!r},{bd.total!r}\n"
            )
        entry = {"record": "val_epoch", "epoch": epoch}
        for tag, report in eval_result.branch_reports.items():
            entry[tag] = {
                "micro": report.micro_accuracy,
                "macro_recall": report.macro_recall,
            }
        entry["fused"] = {
            "micro": eval_result.fused_report.micro_accuracy,
            "macro_recall": eval_result.fused_report.macro_recall,
        }
        val_fh.write(json.dumps(entry) + "\n")
        log.info(
            "epoch %d: %s",
            epoch,
            " ".join(f"{t}={bd.total:.4f}" for t, bd in breakdowns.items()),
        )

    out_dir = _out_dir(args.out)
    with contextlib.ExitStack() as files:  # every file opened so far is closed on a failure
        loss_files = {
            tag: files.enter_context(open_data_file(out_dir / f"{tag}_loss.csv", "w"))
            for tag in tags
        }
        for fh in loss_files.values():
            fh.write("epoch,cls,kl,rank,rec,total\n")
        val_fh = files.enter_context(open_data_file(out_dir / "val_metrics.jsonl", "w"))
        result = train_model(
            train_ds, config, val_ds=val_ds, branch_tags=tags,
            ablation=args.ablation, on_epoch=on_epoch,
        )

    model_files = {}
    for tag in result.branches:
        filename = f"{tag}.params.json"
        result.store.subset(f"{tag}.").save(out_dir / filename)
        model_files[tag] = filename
    manifest = {
        "tool_version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "ablation": args.ablation,
        "branches": list(result.branches),
        "dims": dims,
        "datasets": {
            "train": {"path": str(args.train), "sha256": sha256_file(args.train)},
            "val": {"path": str(args.val), "sha256": sha256_file(args.val)},
        },
        "models": model_files,
        "best_epoch": result.best_epoch,
    }
    with open_data_file(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    log.info("wrote %s", out_dir / "manifest.json")
    return EXIT_OK


_MANIFEST_KEYS = {"config": dict, "dims": dict, "branches": list, "models": dict, "datasets": dict}


def _check_manifest(manifest, path: Path) -> None:
    """Reject a manifest whose structure ``cmd_eval`` cannot use, naming the key."""
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    for key, kind in _MANIFEST_KEYS.items():
        if not isinstance(manifest.get(key), kind):
            raise DataError(f"{path}: manifest key {key!r} is missing or not a {kind.__name__}")
    for key, least in _HEADER_INTS.items():
        _integer(manifest["dims"].get(key), key, least, f"{path}: manifest key 'dims'")
    if not manifest["branches"]:
        raise DataError(f"{path}: manifest key 'branches' names no branch")
    for tag in manifest["branches"]:
        if tag not in BRANCH_TAGS or not isinstance(manifest["models"].get(tag), str):
            raise DataError(f"{path}: manifest key 'models' has no file for branch {tag!r}")
    if manifest.get("ablation", "full") not in ABLATIONS:
        raise DataError(f"{path}: manifest key 'ablation' is not one of {', '.join(ABLATIONS)}")


def _restore_from_manifest(manifest: dict, manifest_path: Path):
    mapping = {k: str(v) for k, v in manifest["config"].items()}
    config = settings_from_mapping(TrainingConfig, mapping, str(manifest_path))
    branches = build_branches(config, manifest["dims"], tuple(manifest["branches"]))
    store = ParameterStore()
    register_branches(store, branches, config.seed)
    for tag in branches:
        sub = store.subset(f"{tag}.")
        try:
            sub.restore(manifest_path.parent / manifest["models"][tag])
        except DataError as exc:
            raise DataError(f"{manifest_path}: model of branch {tag!r}: {exc}") from exc
        for name in sub.names():
            store.set(name, sub.get(name))
    return config, branches, store


def cmd_eval(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = parse_json(read_text(manifest_path), manifest_path)
    _check_manifest(manifest, manifest_path)
    data_hash = sha256_file(args.data)
    known = [e.get("sha256") for e in manifest["datasets"].values() if isinstance(e, dict)]
    if data_hash not in known and not args.force:
        raise DataError(
            f"{args.data}: content hash {data_hash[:12]}... does not match the manifest "
            f"{manifest_path} (use --force to evaluate anyway)"
        )
    config, branches, store = _restore_from_manifest(manifest, manifest_path)
    dataset = _load(args.data)
    check_dims(dataset.dims, manifest["dims"], f"{args.data}: line 1",
               f"the model in the manifest {manifest_path}")
    seed = args.seed if args.seed is not None else config.seed
    ablation = args.ablation or manifest.get("ablation", "full")

    sample_counts = args.mc_samples or [config.mc_samples]
    out_dir = _out_dir(args.out or manifest_path.parent)
    report_path = out_dir / "report.jsonl"
    start = time.perf_counter()
    results = evaluate_dataset(
        store, branches, dataset, config, seed,
        sample_counts=sample_counts, ablation=ablation, fusion=args.fusion,
        collect_diagnostics=True,
    )
    log.debug(
        "inference: %d groups, mc_samples %s, %.3f s",
        len(dataset.groups), ",".join(map(str, sample_counts)), time.perf_counter() - start,
    )
    sweep_rows = list(zip(sample_counts, results))
    with open_data_file(report_path, "w") as fh:
        for n, result in sweep_rows:
            meta = {
                "record": "run",
                "mc_samples": n,
                "fusion": args.fusion,
                "ablation": ablation,
                "seed": seed,
                "data": str(args.data),
            }
            fh.write(json.dumps(meta) + "\n")
            for tag, report in result.branch_reports.items():
                fh.write(
                    json.dumps({"record": "branch_metrics", "mc_samples": n, "branch": tag,
                                **report.to_dict()}) + "\n"
                )
            fh.write(
                json.dumps({"record": "fused_metrics", "mc_samples": n,
                            **result.fused_report.to_dict()}) + "\n"
            )
            for rec in result.records:
                fh.write(json.dumps({**rec, "mc_samples": n}) + "\n")
    for n, result in sweep_rows:
        print(f"== mc_samples = {n} (fusion {args.fusion}, ablation {ablation}) ==")
        for tag, report in result.branch_reports.items():
            print(report.format_table(title=f"[{tag}]"))
        print(result.fused_report.format_table(title="[fused]"))
    if len(sweep_rows) > 1:
        print("== sweep ==")
        print(f"{'N':>6} {'fused micro':>12} {'face micro':>11}")
        for n, result in sweep_rows:
            face = result.branch_reports.get("face")
            face_str = f"{100 * face.micro_accuracy:11.2f}" if face else " " * 11
            print(f"{n:>6} {100 * result.fused_report.micro_accuracy:12.2f} {face_str}")
    log.info("wrote %s", report_path)
    return EXIT_OK


def _gradcheck_units(seed: int):
    """Scenario list: (name, loss_fn factory, store). Shared by cmd and tests."""
    units = []
    rng = SeededRng(seed)

    def scenario(name, key, branch, in_dim, n, **weights):
        cfg = TrainingConfig(beta=0.5, delta1=5.0, **weights)
        r = rng.derive(key)
        store = ParameterStore()
        branch.register(store, r.derive("init"))
        store.get(f"{branch.tag}.embed.logvar.weight")[...] = 0.3 * r.normals((5, in_dim))
        if branch.tag == "face":
            store.get("face.embed.logvar.bias")[...] = 0.2 * r.normals(5)
        # one group, as a stack of one: the words, so the values, of an (n, in_dim) draw
        x, eps, label = r.normals((1, n, in_dim)), r.normals((1, n, 5)), r.integer(3)

        def loss_fn(s):
            bd, g = branch.loss_and_grads(s, x, [label], eps, cfg)
            return float(bd.total[0]), {k: v[0] for k, v in g.items()}

        units.append((name, loss_fn, store))

    for name, weights in (
        ("face.cls", dict(lambda2=0.0, lambda3=0.0, lambda4=0.0)),
        ("face.kl", dict(lambda2=1.0, lambda3=0.0, lambda4=0.0)),
        ("face.rank", dict(lambda2=0.0, lambda3=1.0, lambda4=0.0)),
        ("face.rec", dict(lambda2=0.0, lambda3=0.0, lambda4=1.0)),
        ("face.total", {}),
    ):
        scenario(name, name, FaceBranch(in_dim=6, latent_dim=5, num_classes=3), 6, 4, **weights)
    scenario("object.total", "object", ObjectBranch(in_dim=4, latent_dim=5, num_classes=3), 4, 3,
             lambda2=0.5)
    return units


def cmd_gradcheck(args) -> int:
    tolerance = args.tolerance
    all_ok = True
    print(f"{'unit':>14} {'seed':>6} {'max rel err':>14} {'status':>8}")
    for seed in range(args.seeds):
        for name, loss_fn, store in _gradcheck_units(seed):
            res = gradient_check(loss_fn, store, tolerance=tolerance)
            status = "pass" if res.passed else "FAIL"
            all_ok = all_ok and res.passed
            print(f"{name:>14} {seed:>6} {res.worst:>14.3e} {status:>8}")
    # self-test: a deliberately broken backward (x2) must be caught
    units = _gradcheck_units(0)
    name, loss_fn, store = units[0]

    def corrupted(s):
        total, g = loss_fn(s)
        return total, {k: 2.0 * v for k, v in g.items()}

    res = gradient_check(corrupted, store, tolerance=tolerance)
    caught = not res.passed
    print(f"{'self-test':>14} {'-':>6} {res.worst:>14.3e} {'pass' if caught else 'FAIL':>8}")
    all_ok = all_ok and caught
    if not all_ok:
        raise NumericError("gradient check failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _flag_type(parse, check, need: str):
    """An argparse ``type``: ``parse(text)`` if that passes ``check``, else a
    usage error that names the flag and what it needs."""
    def convert(text: str):
        try:
            value = parse(text)
            if check(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"needs {need}, got {text!r}")
    return convert


def build_parser() -> _Parser:
    parser = _Parser(prog="ual", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic group dataset")
    p.add_argument("--spec", help="simulation spec file (key = value); bundled default if omitted")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--num-groups", type=int, help="override the spec group count")
    p.add_argument("--partition", help="override the spec partition tag (train/val/...)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train branches and write models + manifest")
    p.add_argument("--config", help="training config file; bundled default if omitted")
    p.add_argument("--train", required=True, help="training dataset path")
    p.add_argument("--val", required=True, help="validation dataset path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--epochs", type=int, help="override the config epoch count")
    p.add_argument("--branch", choices=BRANCH_TAGS + ("all",), default="all")
    p.add_argument("--ablation", choices=ABLATIONS, default="full")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained manifest on a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fusion", choices=FUSION_STRATEGIES, default="pwfs")
    p.add_argument("--ablation", choices=ABLATIONS, help="override the trained ablation")
    p.add_argument(
        "--mc-samples", help="sample count, or comma list for a sweep",
        type=_flag_type(lambda text: [int(tok) for tok in text.split(",")],
                        lambda counts: min(counts) >= 1, "ints >= 1, comma-separated"),
    )
    p.add_argument("--seed", type=int, help="inference seed (default: manifest seed)")
    p.add_argument("--out", help="report directory (default: manifest directory)")
    p.add_argument("--force", action="store_true", help="skip the dataset hash check")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every unit")
    p.add_argument("--tolerance", default=1e-4, type=_flag_type(
        float, lambda t: np.isfinite(t) and t > 0, "a finite number > 0"))
    p.add_argument("--seeds", default=5, help="random instantiations per unit",
                   type=_flag_type(int, lambda n: n >= 1, "an int >= 1"))
    p.set_defaults(func=cmd_gradcheck)
    return parser


# How main() reports an error, the first class that matches: prefix and exit code
_ERROR_KINDS = ((ConfigError, "config error", EXIT_DATA), (DataError, "data error", EXIT_DATA),
                (NumericError, "numeric failure", EXIT_NUMERIC), (UalError, "error", EXIT_DATA),
                (MemoryError, "error: out of memory", EXIT_DATA))
# C0 control characters and DEL in an error message (a path, a key) are written as \xNN
_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), 0x7F)}


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except (UalError, MemoryError) as exc:
        kind, code = next((kind, code) for error, kind, code in _ERROR_KINDS
                          if isinstance(exc, error))
        print(f"{kind}: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
