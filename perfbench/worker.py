"""One workload process: set up, time the package's public calls, check them.

run.py starts one of these for each set-up sample; the last one also runs
the timed calls. Set-up time and peak memory are thus each process's own. It
prints one JSON object as its last line of output.

An operation is one `training.train` or `evaluation.evaluate` call. It fails
if it raises, gives a non-finite loss or score, ranks a gt answer outside
[1, n_candidates], gives an MRR outside (0, 1], touches the posterior branch
where it must not, or differs from an identical earlier call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from grounddial import data, evaluation, model, training  # noqa: E402

from tracer import Patch, Tracer  # noqa: E402
from workloads import LAYER_COUNTS, LAYER_FUNCTIONS, WORKLOADS, Workload  # noqa: E402

MIN_SAMPLES = 3
REF_SECONDS = 0.025  # the calibration loop's time on the 2-core host the bounds were set on


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def source_fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).with_name("workloads.py")]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def exact(outcome):
    """Floats as hex, so records compare bit for bit."""
    if isinstance(outcome, dict):
        return {k: exact(v) for k, v in outcome.items()}
    if isinstance(outcome, float):
        return outcome.hex()
    return outcome


class Calibration:
    """A fixed LSTM-like loop of small NumPy ops and Python calls, the kind of
    work the package's recurrence does.

    The host's speed drifts by tens of percent within minutes (other tenants
    share its cores). Timed next to every sample, this loop measures the
    current speed, and the reported times are scaled to the reference speed
    at which the loop takes REF_SECONDS, so the drift cancels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.wx = 0.1 * rng.normal(size=(64, 256))
        self.wh = 0.1 * rng.normal(size=(64, 256))
        self.xs = rng.normal(size=(20, 1, 64))

    def speed(self) -> float:
        """Host speed relative to the reference; above 1 on a faster host."""
        t0 = time.perf_counter()
        for _ in range(40):
            h = c = np.zeros((1, 64))
            states = []
            for x in self.xs:
                z = x @ self.wx + h @ self.wh
                i, f, o = (1.0 / (1.0 + np.exp(-z[:, k:k + 64])) for k in (0, 64, 128))
                c = f * c + i * np.tanh(z[:, 192:])
                h = o * np.tanh(c)
                states.append(np.concatenate([h, c], axis=1))
        return REF_SECONDS / (time.perf_counter() - t0)


class Run:
    """Inputs, parameters and bookkeeping of one workload process."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.synth = data.SyntheticConfig(
            num_images=w.train_images + w.val_images + w.heldout_images, seed=seed,
            **w.synthetic)
        ds = data.generate_synthetic(self.synth)
        a, b = w.train_images, w.train_images + w.val_images
        self.train_ds = data.DialogDataset(ds.examples[:a], ds.vocab, "train")
        self.val_ds = data.DialogDataset(ds.examples[a:b], ds.vocab, "val")
        self.heldout = data.DialogDataset(ds.examples[b:], ds.vocab, "heldout")
        self.vocab_size = len(ds.vocab)
        self.cfg = training.TrainConfig(**w.train)
        self.params = self.fresh_params()
        self.heldout_units = model.prepare_units(self.heldout, self.cfg.seq_len,
                                                 self.cfg.max_history)
        step = w.chunk_images * self.synth.rounds
        self.chunks = [self.heldout_units[i:i + step]
                       for i in range(0, len(self.heldout_units), step)] if step else []

        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bad_ranks = 0
        self.ranks_seen = 0
        self.posterior_calls = 0
        self.outcomes: dict = {}

    def fresh_params(self) -> model.ModelParams:
        cfg = self.cfg
        return model.init_model_params(
            np.random.default_rng(cfg.seed), self.vocab_size, d_v=self.synth.d_v,
            d_e=cfg.d_e, d_q=cfg.d_q, n_heads=cfg.n_heads, d_h=cfg.d_h,
            fusion_residual=cfg.fusion_residual)

    # -- output checks installed around package functions ------------------

    def rank_check(self, rank_of_gt):
        def checked(scores, gt_index):
            rank = rank_of_gt(scores, gt_index)
            s = np.asarray(scores, dtype=float)
            self.ranks_seen += 1
            if not (np.isfinite(s).all() and 1 <= rank <= s.shape[0]):
                self.bad_ranks += 1
            return rank
        return checked

    def posterior_count(self, posterior_ground):
        def counted(*args, **kwargs):
            self.posterior_calls += 1
            return posterior_ground(*args, **kwargs)
        return counted

    # -- operations ----------------------------------------------------------

    def attempt(self, key, call):
        """Run one operation; (units, seconds, outcome), or None if it failed."""
        self.attempted += 1
        marks = (self.bad_ranks, self.posterior_calls)
        try:
            units, seconds, outcome = call()
            if self.bad_ranks != marks[0]:
                raise CheckFailed("a gt rank outside [1, n_candidates] or a non-finite score")
            if self.posterior_calls != marks[1]:
                raise CheckFailed("inference touched grounding.posterior_ground")
            first = self.outcomes.setdefault(key, outcome)
            if exact(first) != exact(outcome):
                raise CheckFailed(f"result differs from the identical earlier call: "
                                  f"{outcome} vs {first}")
        except Exception as exc:  # the run goes on; the failure is counted and reported
            self.failed += 1
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        return units, seconds, outcome

    def check_report(self, mrr: float, mean_rank: float) -> None:
        if not (math.isfinite(mrr) and 0.0 < mrr <= 1.0):
            raise CheckFailed(f"MRR {mrr!r} outside (0, 1]")
        if not 1.0 <= mean_rank <= self.synth.candidates:
            raise CheckFailed(f"mean rank {mean_rank!r} outside [1, {self.synth.candidates}]")

    def train_call(self):
        params = self.fresh_params()
        t0 = time.perf_counter()
        result = training.train(self.train_ds, self.val_ds, params, self.cfg)
        seconds = time.perf_counter() - t0
        last = result.epochs[-1]
        outcome = {k: last[k] for k in ("L_G", "L_D", "L_KL") if k in last}
        for k, v in outcome.items():
            if not math.isfinite(v):
                raise CheckFailed(f"non-finite {k} {v!r}")
        val = last["val"]
        self.check_report(val["mrr"], val["mean_rank"])
        outcome.update(val_mrr=val["mrr"], val_grounding_top1=val.get("grounding_top1"))
        self.params = params
        return len(self.train_ds.units()) * self.cfg.max_epochs, seconds, outcome

    def eval_call(self, decoder: str, units: list):
        t0 = time.perf_counter()
        report = evaluation.evaluate(self.params, self.heldout, decoder=decoder, units=units)
        seconds = time.perf_counter() - t0
        self.check_report(report.mrr, report.mean_rank)
        outcome = {"mrr": report.mrr, "grounding_top1": report.grounding_top1}
        return len(units), seconds, outcome

    def step(self, k: int):
        """One sample: a train() call, or one chunk ranked by both decoders.

        Returns (units, seconds, {figure: units/s}) or None on a failure.
        """
        if self.w.trains:
            done = self.attempt("train", self.train_call)
            if done is None:
                return None
            units, seconds, _ = done
            return units, seconds, {"train_units_per_s": units / seconds}
        i = k % len(self.chunks)
        disc = self.attempt(("discriminative", i),
                            lambda: self.eval_call("discriminative", self.chunks[i]))
        gen = self.attempt(("generative", i),
                           lambda: self.eval_call("generative", self.chunks[i]))
        if disc is None or gen is None:
            return None
        units, seconds = disc[0] + gen[0], disc[1] + gen[1]
        return units, seconds, {"eval_disc_units_per_s": disc[0] / disc[1],
                                "eval_gen_units_per_s": gen[0] / gen[1]}

    def final_evaluation(self) -> dict:
        done = self.attempt("final", lambda: self.eval_call("generative", self.heldout_units))
        return done[2] if done else {"mrr": 0.0, "grounding_top1": 0.0}


def run_steps(run: Run, calibration: Calibration, samples: dict, until: float = math.inf,
              count: int = 0, first: int = 0) -> int:
    """Take samples from step `first` on, until the clock passes `until`
    (after at least MIN_SAMPLES attempts), or exactly `count` attempts;
    returns the units processed. Throughputs are scaled by the host speed
    measured just before and just after each sample; `units_per_s_raw`
    keeps the wall-time figure."""
    units_done, k = 0, first
    before = calibration.speed()
    while True:
        got = run.step(k)
        k += 1
        after = calibration.speed()
        if got is not None:
            units, seconds, figures = got
            speed = (before + after) / 2
            units_done += units
            figures["units_per_s"] = units / seconds
            for name, value in figures.items():
                samples.setdefault(name, []).append(value / speed)
            samples.setdefault("units_per_s_raw", []).append(units / seconds)
            samples.setdefault("host_speed", []).append(speed)
        before = after
        if count:
            if k - first >= count:
                return units_done
        elif time.perf_counter() >= until and k - first >= MIN_SAMPLES:
            return units_done


def layer_metrics(tracer: Tracer, units: int, speed: float, overhead_ms: float) -> dict:
    """Per-unit figures of the traced work; times at the reference speed."""
    out = {}
    for name, (calls, total, self_s) in tracer.totals().items():
        out[f"{name}.calls_per_unit"] = calls / units
        out[f"{name}.total_ms_per_unit"] = 1000.0 * total * speed / units
        out[f"{name}.self_ms_per_unit"] = 1000.0 * self_s * speed / units
    for name, count in tracer.counts.items():
        out[name] = count / units
    out["trace.overhead_ms_per_unit"] = overhead_ms
    return out


def check_repeat_record(run: Run, path: Path, first, final) -> None:
    """Compare with the record of an earlier run of this workload and seed on
    the same source; the first run of a source writes the record."""
    current = {"fingerprint": source_fingerprint(), "first": exact(first), "final": exact(final)}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("fingerprint") == current["fingerprint"]:
            if earlier != current:
                run.failed += 1
                run.failures.append(f"results differ from the earlier run recorded in {path}")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(current, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    tracer = Tracer(LAYER_FUNCTIONS, counters=LAYER_COUNTS) if args.trace else None
    if tracer:
        with tracer:
            run = Run(w, args.seed)
    else:
        run = Run(w, args.seed)
    # CLOCK_MONOTONIC is shared by every process, so run.py can subtract its spawn time
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    calibration = Calibration()
    setup_speed = statistics.median(calibration.speed() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "speed": setup_speed}))
        return 0

    checks = [Patch("grounddial", "evaluation.rank_of_gt", run.rank_check)]
    if not w.trains:
        checks.append(Patch("grounddial", "grounding.posterior_ground", run.posterior_count))
    for c in checks:
        c.install()
    samples: dict = {}
    traced: dict = {}
    neighbours: dict = {}
    try:
        start = time.perf_counter()
        if tracer is None:
            run_steps(run, calibration, samples, until=start + args.seconds)
        else:
            # untraced half first (warm), then a fixed amount of traced work,
            # so per-unit figures of set-up functions have a fixed base; each
            # traced step follows the same step untraced, so the overhead
            # compares neighbours in one phase of the host's load
            run_steps(run, calibration, samples, until=start + args.seconds / 2)
            traced_units = 0
            for k in range(w.traced_calls * (1 if w.trains else len(run.chunks))):
                run_steps(run, calibration, neighbours, count=1, first=k)
                with tracer:
                    traced_units += run_steps(run, calibration, traced, count=1, first=k)
        first = run.outcomes.get("train", run.outcomes.get(("generative", 0)))
        final = run.final_evaluation()
    finally:
        for c in reversed(checks):
            c.remove()

    out_dir = Path(args.out_dir)
    suffix = "-tiny" if args.tiny else ""
    check_repeat_record(run, out_dir / "repeat" / f"{w.name}-seed{args.seed}{suffix}.json",
                        first, final)
    result = {
        "t_ready": t_ready,
        "speed": setup_speed,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:20],
        "samples": samples,
        "val_mrr": final["mrr"],
        "val_grounding_top1": final["grounding_top1"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "posterior_calls": run.posterior_calls,
        "ranks_checked": run.ranks_seen,
        "numpy": np.__version__,
        "source_sha256": source_fingerprint(),
    }
    if tracer is not None:
        # neighbours share the host's speed, so their wall times compare directly
        overhead, speed = 0.0, 1.0
        if traced and neighbours:
            speed = statistics.median(traced["host_speed"])
            overhead = 1000.0 * speed * (1.0 / statistics.median(traced["units_per_s_raw"])
                                         - 1.0 / statistics.median(neighbours["units_per_s_raw"]))
        result["per_layer"] = layer_metrics(tracer, max(traced_units, 1), speed, overhead)
        result["absent"] = tracer.absent
        spans = out_dir / "spans" / f"{w.name}-seed{args.seed}{suffix}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(spans, names=np.array(tracer.names), fid=np.array(tracer.fid),
                            parent=np.array(tracer.parent), start=np.array(tracer.start),
                            end=np.array(tracer.end), self_time=np.array(tracer.self_time))
        result["spans_file"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
