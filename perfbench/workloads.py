"""The three benchmark workloads.

Each workload draws its parameters from the seeded generator, builds its
inputs with dirkit calls only (`setup`, the timed set-up), computes its
oracles apart from the program (`prepare`, untimed), and yields rounds
of operations. An operation is a `run` callable, timed alone, and a
`check` that raises `Mismatch` when the output is wrong.
"""

import contextlib
import io
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

import dirkit
import dirkit.cli
from dirkit import DataType

import oracles as orc
from oracles import Mismatch

LOG = DataType.LOG_MAGNITUDE
LIN = DataType.LINEAR_MAGNITUDE
SAMPLE_RATE = 48000.0
LENGTH = 256


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable


def _lowpass_params(rng):
    """Seeded synth parameters; any draw keeps g0 > g1 >= 0 and 0 < a < 1."""
    return {
        "g0": float(rng.uniform(0.5, 0.8)),
        "g1": float(rng.uniform(0.1, 0.4)),
        "lowpass_a": float(rng.uniform(0.3, 0.7)),
    }


def _spec(params, step):
    return dirkit.SynthSpec(
        mode="lowpass", azimuth_step=step, elevation_step=step,
        elevation_limits=(-40.0, 90.0), length=LENGTH, sample_rate=SAMPLE_RATE,
        **params,
    )


def _angles(directions):
    az = np.array([d.azimuth for d in directions])
    el = np.array([d.elevation for d in directions])
    return az, el


# --------------------------------------------------------------------------
# order-sweep
# --------------------------------------------------------------------------

class OrderSweep:
    """Fit orders 1..32 of the 1944 x 256 lowpass set at two distances and
    compare each fit with the set on its own grid."""

    max_order = 32
    min_rounds = 2
    trace_rounds = 1

    def params(self, rng):
        return dict(_lowpass_params(rng), far_gain=float(rng.uniform(0.3, 0.7)))

    def setup(self, params):
        spec_params = {k: v for k, v in params.items() if k != "far_gain"}
        near = dirkit.synth_test_set(_spec(spec_params, 5.0))
        irs = np.concatenate([near.irs, params["far_gain"] * near.irs], axis=2)
        raw = dirkit.RawIRs(
            "lowpass set at two distances", irs, near.sample_rate,
            near.coords.directions, (1.0, 2.0),
        )
        # The comparison grid: stored directions and distances, and the bins
        # inside every model's limits (all but DC).
        grid = dirkit.CoordinateSet(
            directions=raw.coords.directions,
            frequencies=raw.coords.frequencies[1:],
            distances=raw.coords.distances,
        )
        return {"raw": raw, "grid": grid}

    def prepare(self, params, state):
        shape = orc.lowpass_shape(params["lowpass_a"], LENGTH)[1:]
        s_db = orc.to_db(shape)
        x = orc.fit_positions(len(s_db))
        expected = {}
        for order in range(1, self.max_order + 1):
            coef = orc.project(order, s_db)
            residual = orc.fourier_design(order, x) @ coef - s_db
            mse = np.sum((shape * (10.0 ** (residual / 20.0) - 1.0)) ** 2) / np.sum(shape**2)
            expected[order] = (np.sqrt(np.mean(residual**2)), np.abs(residual), mse)
        return {"expected": expected, "bins": state["raw"].coords.frequency_array[1:]}

    def round(self, state, oracle, rng):
        raw, grid = state["raw"], state["grid"]
        previous = [np.inf]

        def step(order):
            model = dirkit.fit_basis_model("", raw, "fourier", order)
            log_diff = dirkit.DirectivityDiff("", raw, model, grid, LOG)
            lin_diff = dirkit.DirectivityDiff("", raw, model, grid, LIN)
            return (
                log_diff.compute_sd(),
                log_diff.error_vs_frequency("sd"),
                lin_diff.compute_mse(),
            )

        def check(order, out):
            sd, (freqs, per_bin), mse = out
            want_sd, want_per_bin, want_mse = oracle["expected"][order]
            orc.expect_close(f"order {order} SD", sd, want_sd, 1e-9, 1e-9)
            orc.expect_close(f"order {order} bins", freqs, oracle["bins"], 0.0)
            orc.expect_close(f"order {order} SD per bin", per_bin, want_per_bin, 1e-9)
            orc.expect_close(f"order {order} MSE", mse, want_mse, 1e-12, 1e-7)
            if sd > previous[0] * (1.0 + 1e-12):
                raise Mismatch(f"SD rose from {previous[0]!r} to {sd!r} at order {order}")
            previous[0] = sd

        return [
            Op("fit+diff", lambda k=k: step(k), lambda out, k=k: check(k, out))
            for k in range(1, self.max_order + 1)
        ]


# --------------------------------------------------------------------------
# offgrid-reads
# --------------------------------------------------------------------------

PATCH_DIRECTIONS = 64
PATCH_FREQUENCIES = 16
BAND_DEG = 10.0
MODEL_ORDER = 16
# One round, shuffled. The kinds fall into latency clusters: series and diff
# patches take about 3 ms, coercion and set/model patches about 6 ms, the
# balloon about 50 ms. Four fast and seven middle operations put the median
# inside the middle cluster, so that it cannot jump from one cluster to the
# other between runs.
OFFGRID_ROUND = (
    ("series-raw", "series-model", "patch-diff", "patch-diff", "coerce-raw")
    + ("patch-raw", "patch-model") * 3
    + ("balloon-diff",)
)


class OffgridReads:
    """Seeded off-grid reads of a ~12k-direction set, its order-16 model and
    a diff on a band around the horizontal plane."""

    min_rounds = 1
    trace_rounds = 25

    def params(self, rng):
        return _lowpass_params(rng)

    def setup(self, params):
        raw = dirkit.synth_test_set(_spec(params, 2.0))
        model = dirkit.fit_basis_model("order-16 model", raw, "fourier", MODEL_ORDER)
        band = dirkit.CoordinateSet(
            directions=tuple(
                d for d in raw.coords.directions if abs(d.elevation) <= BAND_DEG
            ),
            frequencies=raw.coords.frequencies[1:],
            distances=raw.coords.distances,
        )
        diff = dirkit.DirectivityDiff("horizontal band", raw, model, band)
        return {"raw": raw, "model": model, "diff": diff}

    def prepare(self, params, state):
        raw, diff = state["raw"], state["diff"]
        shape = orc.lowpass_shape(params["lowpass_a"], LENGTH)
        s_db = orc.to_db(shape)
        coef = orc.project(MODEL_ORDER, s_db[1:])
        bins = raw.coords.frequency_array
        raw_az, raw_el = _angles(raw.coords.directions)
        band_az, band_el = _angles(diff.coords.directions)
        x = orc.fit_positions(len(bins) - 1)
        return {
            "params": params,
            "shape": shape,
            "coef": coef,
            "bins": bins,
            "raw_units": orc.unit_vectors(raw_az, raw_el),
            "band_units": orc.unit_vectors(band_az, band_el),
            "band_residual": orc.fourier_design(MODEL_ORDER, x) @ coef - s_db[1:],
        }

    # -- request generation ------------------------------------------------

    @staticmethod
    def _direction(rng):
        return (float(rng.uniform(0.0, 360.0)), float(rng.uniform(-90.0, 90.0)))

    def _patch(self, rng):
        """Raw request values; the operation itself builds the CoordinateSet."""
        directions = tuple(self._direction(rng) for _ in range(PATCH_DIRECTIONS))
        freqs = np.unique(rng.uniform(0.0, SAMPLE_RATE / 2, PATCH_FREQUENCIES))
        return {
            "directions": directions, "frequencies": tuple(freqs.tolist()),
            "distances": (float(rng.uniform(0.5, 3.0)),),
        }

    def round(self, state, oracle, rng):
        raw, model, diff = state["raw"], state["model"], state["diff"]
        ops = []
        for kind in map(str, rng.permutation(OFFGRID_ROUND)):
            if kind.startswith("series"):
                obj = raw if kind == "series-raw" else model
                direction, distance = self._direction(rng), float(rng.uniform(0.5, 3.0))
                run = lambda o=obj, d=direction, r=distance: o.spectrum_series(d, r, LOG)
                check = lambda out, k=kind, d=direction: self._check_series(oracle, k, d, out)
            elif kind.startswith("patch"):
                obj, datatype = {
                    "patch-raw": (raw, LOG), "patch-model": (model, LIN),
                    "patch-diff": (diff, LOG),
                }[kind]
                run = lambda o=obj, q=self._patch(rng), t=datatype: _read(o, q, t)
                check = lambda out, k=kind: self._check_patch(oracle, k, *out)
            elif kind == "balloon-diff":
                freq, distance = float(rng.uniform(0.0, SAMPLE_RATE / 2)), float(rng.uniform(0.5, 3.0))
                run = lambda f=freq, r=distance: diff.balloon_grid(f, r, LOG)
                check = lambda out, f=freq: self._check_balloon(oracle, diff, f, out)
            else:
                run = lambda q=self._patch(rng): _read(raw, q, None)
                check = lambda out: self._check_coerce(oracle, *out)
            ops.append(Op(kind, run, check))
        return ops

    # -- oracles -----------------------------------------------------------

    @staticmethod
    def _model_db(oracle, az, el, freqs):
        p = oracle["params"]
        bins = oracle["bins"]
        x = orc.query_positions(freqs, bins[1], bins[-1], len(bins) - 1)
        fitted = orc.fourier_design(MODEL_ORDER, x) @ oracle["coef"]
        gain_db = orc.to_db(orc.lowpass_gain(p["g0"], p["g1"], az, el))
        return gain_db[:, None] + fitted[None, :]

    @staticmethod
    def _raw_db(oracle, az, el, freqs):
        p = oracle["params"]
        bins = oracle["bins"]
        k = np.rint(np.asarray(freqs) / bins[1]).astype(int)
        gain = orc.lowpass_gain(p["g0"], p["g1"], az, el)
        return orc.to_db(gain[:, None] * oracle["shape"][k][None, :])

    def _check_series(self, oracle, kind, direction, out):
        got_az, got_el = _angles(out.coords.directions)
        orc.check_nearest_directions(
            kind, oracle["raw_units"], [direction[0]], [direction[1]], got_az, got_el
        )
        orc.expect_close(f"{kind} distance", out.coords.distances, [1.0], 0.0)
        bins = oracle["bins"]
        if kind == "series-raw":
            orc.expect_close(f"{kind} bins", out.frequencies, bins, 0.0)
            want = self._raw_db(oracle, got_az, got_el, bins)[0]
        else:
            sweep = np.geomspace(bins[1], bins[-1], 512)
            orc.expect_close(f"{kind} frequencies", out.frequencies, sweep, 0.0, 1e-12)
            want = self._model_db(oracle, got_az, got_el, out.frequencies)[0]
        orc.expect_close(f"{kind} values", out.values, want, 1e-9)

    def _check_patch(self, oracle, kind, request, out):
        req_az, req_el = _angles(request.directions)
        got_az, got_el = _angles(out.coords.directions)
        req_f, got_f = request.frequency_array, out.coords.frequency_array
        bins = oracle["bins"]
        orc.expect_close(f"{kind} distance", out.coords.distances, [1.0], 0.0)
        values = out.values[:, :, 0]
        if kind == "patch-diff":
            orc.check_nearest_directions(
                kind, oracle["band_units"], req_az, req_el, got_az, got_el
            )
            orc.check_nearest_values(kind, bins[1:], req_f, got_f)
            want = oracle["band_residual"][np.rint(got_f / bins[1]).astype(int) - 1]
            orc.expect_close(f"{kind} values", values, np.broadcast_to(want, values.shape), 1e-9)
            return
        orc.check_nearest_directions(kind, oracle["raw_units"], req_az, req_el, got_az, got_el)
        if kind == "patch-raw":
            orc.check_nearest_values(kind, bins, req_f, got_f)
            orc.expect_close(f"{kind} values", values, self._raw_db(oracle, got_az, got_el, got_f), 1e-9)
        else:
            orc.expect_close(f"{kind} frequencies", got_f, np.clip(req_f, bins[1], bins[-1]), 0.0)
            want = 10.0 ** (self._model_db(oracle, got_az, got_el, got_f) / 20.0)
            orc.expect_close(f"{kind} values", values, want, 0.0, 1e-9)

    @staticmethod
    def _check_balloon(oracle, diff, frequency, out):
        stored_az, stored_el = _angles(diff.coords.directions)
        got_az, got_el = _angles(out.directions)
        orc.check_nearest_directions(
            "balloon-diff", oracle["band_units"], stored_az, stored_el, got_az, got_el
        )
        bins = oracle["bins"]
        got_f = out.coords.frequency_array
        orc.check_nearest_values("balloon-diff", bins[1:], [frequency], got_f)
        want = oracle["band_residual"][int(np.rint(got_f[0] / bins[1])) - 1]
        orc.expect_close("balloon-diff values", out.values, np.full(len(got_az), want), 1e-9)

    @staticmethod
    def _check_coerce(oracle, request, out):
        req_az, req_el = _angles(request.directions)
        got_az, got_el = _angles(out.coords.directions)
        orc.check_nearest_directions(
            "coerce-raw", oracle["raw_units"], req_az, req_el, got_az, got_el
        )
        orc.check_nearest_values(
            "coerce-raw", oracle["bins"], request.frequency_array, out.coords.frequency_array
        )
        orc.expect_close("coerce-raw distance", out.coords.distances, [1.0], 0.0)


def _read(obj, values, datatype):
    """Build a request and read it (coerce it, when `datatype` is None)."""
    request = dirkit.CoordinateSet(**values)
    if datatype is None:
        return request, obj.coerce_onto(request)
    return request, obj.get_data_matrix(request, datatype)


# --------------------------------------------------------------------------
# cli-pipeline
# --------------------------------------------------------------------------

# The HRIR noise does not follow --seed: the convert fault must show on the
# same input in every run. The seed draws the read positions of each round.
NOISE_SEED = 20220624
DECAY_SAMPLES = 24.0
CLI_ORDER = 16
SWEEP_ORDER = 8
_LANDED = re.compile(r"at \(([^,]+), ([^)]+)\) deg, (\S+) m")


def _landed(line):
    match = _LANDED.search(line)
    if match is None:
        raise Mismatch(f"no landing point in {line!r}")
    return tuple(float(v) for v in match.groups())


class CliPipeline:
    """`python -m dirkit` commands on a 22 MB decaying-noise HRIR file."""

    min_rounds = 2
    trace_rounds = 1

    def __init__(self, workdir, env, in_process=False):
        self.workdir = workdir
        self.env = env
        self.in_process = in_process

    def path(self, name):
        return str(self.workdir / name)

    def params(self, rng):
        directions = dirkit.synth_directions(_spec({}, 5.0))
        noise = np.random.default_rng(NOISE_SEED)
        decay = np.exp(-np.arange(LENGTH) / DECAY_SAMPLES)
        irs = noise.standard_normal((len(directions), LENGTH, 2)) * decay[None, :, None]
        return {"directions": directions, "irs": irs}

    def setup(self, params):
        raw = dirkit.RawIRs(
            "decaying-noise HRIR set", params["irs"], SAMPLE_RATE,
            params["directions"], (1.0, 2.0),
        )
        dirkit.write_dird(raw, self.path("input.dird"))
        return {"generated": params["irs"]}

    def prepare(self, params, state):
        fs, directions, distances, irs = orc.parse_dird(self.path("input.dird"))
        units = orc.unit_vectors(directions[:, 0], directions[:, 1])
        # Reads at stored directions tie at the poles and go to the first
        # stored direction at the smallest angle, as the read contract says.
        canonical = np.argmax(units @ units.T > 1.0 - 1e-12, axis=1)
        k = np.arange(LENGTH // 2 + 1)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(LENGTH), k) / LENGTH)
        magnitude = np.abs(np.einsum("dnr,nk->dkr", irs, dft, optimize=True))
        magnitude = magnitude[canonical]
        db = orc.to_db(magnitude)
        x = orc.fit_positions(len(k) - 1)
        fits = {}
        for order in sorted({CLI_ORDER, *range(1, SWEEP_ORDER + 1)}):
            coef = orc.project(order, db[:, 1:, :].transpose(1, 0, 2))
            fits[order] = (coef, np.einsum("jk,kdr->djr", orc.fourier_design(order, x), coef))
        lin = magnitude[:, 1:, :]

        def mse(fitted, select=slice(None)):
            err = 10.0 ** (fitted[select] / 20.0) - lin[select]
            return np.sum(err**2) / np.sum(lin[select] ** 2)

        fitted16 = fits[CLI_ORDER][1]
        ring = np.flatnonzero(directions[:, 1] == 0.0)
        ring = ring[np.argsort(directions[ring, 0], kind="stable")]
        return {
            "fs": fs, "directions": directions, "distances": distances, "irs": irs,
            "units": units, "bins": k * fs / LENGTH, "db": db,
            "coef16": fits[CLI_ORDER][0].transpose(1, 0, 2),
            "sd_per_bin": np.sqrt(np.mean((fitted16 - db[:, 1:, :]) ** 2, axis=(0, 2))),
            "sd": np.sqrt(np.mean((fitted16 - db[:, 1:, :]) ** 2)),
            "ring": ring,
            "mse_ring": np.array([mse(fitted16, [i]) for i in ring]),
            "sweep": np.array([mse(fits[o][1]) for o in range(1, SWEEP_ORDER + 1)]),
            "generated": state["generated"],
        }

    # -- running commands --------------------------------------------------

    def _command(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dirkit.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "dirkit", *argv], cwd=self.workdir,
            env=self.env, capture_output=True, text=True, check=False,
        )
        return done.returncode, done.stdout, done.stderr

    def round(self, state, oracle, rng):
        src, model = self.path("input.dird"), self.path("model.dirm")
        spectrum_at = (rng.uniform(0, 360), rng.uniform(-90, 90), rng.uniform(0.5, 3.0))
        balloon_at = (rng.uniform(0, SAMPLE_RATE / 2), rng.uniform(0.5, 3.0))
        extract_at = (rng.uniform(0, 360), rng.uniform(-90, 90), rng.uniform(0.5, 3.0))
        commands = (
            ("info", ["info", src], self._check_info, ()),
            ("fit", ["fit", src, "-k", str(CLI_ORDER), "-o", model], self._check_fit, ()),
            ("diff", ["diff", src, model, "--measure", "sd", "-o", self.path("sd.csv")],
             self._check_diff_sd, ()),
            ("diff", ["diff", src, model, "--measure", "mse", "--mode", "horizontal",
                      "-o", self.path("mse.csv")], self._check_diff_mse, ()),
            ("sweep", ["sweep", src, "-k", str(SWEEP_ORDER), "-o", self.path("sweep.csv")],
             self._check_sweep, ()),
            ("spectrum", ["spectrum", src, model, *_where(*spectrum_at),
                          "-o", self.path("spectrum.csv")], self._check_spectrum, spectrum_at),
            ("balloon", ["balloon", src, "--frequency", repr(balloon_at[0]), "--distance",
                         repr(balloon_at[1]), "-o", self.path("balloon.csv")],
             self._check_balloon, balloon_at),
            ("extract-ir", ["extract-ir", src, *_where(*extract_at), "-o", self.path("ir.wav")],
             self._check_extract, extract_at),
            ("convert", ["convert", src, "-o", self.path("converted.dird")],
             self._check_convert, ()),
        )
        return [
            Op(kind, lambda a=argv: self._command(a),
               lambda out, c=check, e=extra: c(_succeeded(out), oracle, *e))
            for kind, argv, check, extra in commands
        ]

    # -- checks --------------------------------------------------------------

    def _check_info(self, stdout, oc):
        bins = oc["bins"]
        for line in (
            f"directions: {len(oc['directions'])}",
            f"frequencies: {len(bins)} bins [{bins[0]:g}, {bins[-1]:g}] Hz",
            f"distances: {', '.join(format(v, 'g') for v in oc['distances'])} m",
            f"sample rate: {oc['fs']:g} Hz, IR length: {LENGTH}",
        ):
            if line not in stdout.splitlines():
                raise Mismatch(f"info: missing line {line!r}")

    def _check_fit(self, stdout, oc):
        order, coef = orc.parse_dirm_coefficients(self.path("model.dirm"))
        if order != CLI_ORDER:
            raise Mismatch(f"fit: order {order} written, {CLI_ORDER} asked")
        orc.expect_close("fit coefficients", coef, oc["coef16"], 1e-9, 1e-9)

    def _check_diff_sd(self, stdout, oc):
        rows = orc.parse_csv(self.path("sd.csv"))[1:]
        orc.expect_close("diff sd bins", [float(r[1]) for r in rows], oc["bins"][1:], 0.0)
        orc.expect_close("diff sd per bin", [float(r[2]) for r in rows], oc["sd_per_bin"], 1e-9)
        overall = float(stdout.split(": ")[1].split()[0])
        orc.expect_close("diff sd overall", overall, oc["sd"], 0.0, 1e-5)

    def _check_diff_mse(self, stdout, oc):
        rows = orc.parse_csv(self.path("mse.csv"))[1:]
        azimuths = oc["directions"][oc["ring"], 0]
        orc.expect_close("diff mse azimuths", [float(r[1]) for r in rows], azimuths, 0.0)
        orc.expect_close("diff mse per azimuth", [float(r[2]) for r in rows],
                         oc["mse_ring"], 1e-12, 1e-7)

    def _check_sweep(self, stdout, oc):
        rows = orc.parse_csv(self.path("sweep.csv"))[1:]
        orc.expect_close("sweep orders", [float(r[1]) for r in rows],
                         np.arange(1, SWEEP_ORDER + 1), 0.0)
        orc.expect_close("sweep mse", [float(r[2]) for r in rows], oc["sweep"], 1e-12, 1e-7)

    @staticmethod
    def _landing(oc, what, requested, line):
        """Check a reported landing point; return its direction and distance index."""
        az, el, dist = _landed(line)
        orc.check_nearest_directions(what, oc["units"], [requested[0]], [requested[1]], [az], [el])
        orc.check_nearest_values(what, oc["distances"], [requested[2]], [dist])
        d = orc.stored_index(oc["directions"][:, 0], oc["directions"][:, 1], az, el)
        return d, int(np.flatnonzero(oc["distances"] == dist)[0])

    def _check_spectrum(self, stdout, oc, *requested):
        lines = stdout.splitlines()
        d, r = self._landing(oc, "spectrum", requested, lines[0])
        if _landed(lines[1]) != _landed(lines[0]):
            raise Mismatch("spectrum: the set and the model landed apart")
        rows = orc.parse_csv(self.path("spectrum.csv"))[1:]
        stored = np.array([row[1:] for row in rows if row[0] == "input"], dtype=float)
        model = np.array([row[1:] for row in rows if row[0] == "model"], dtype=float)
        bins = oc["bins"]
        orc.expect_close("spectrum set bins", stored[:, 0], bins, 0.0)
        orc.expect_close("spectrum set", stored[:, 1], oc["db"][d, :, r], 1e-9)
        orc.expect_close("spectrum model frequencies", model[:, 0],
                         np.geomspace(bins[1], bins[-1], 512), 0.0, 1e-12)
        x = orc.query_positions(model[:, 0], bins[1], bins[-1], len(bins) - 1)
        want = orc.fourier_design(CLI_ORDER, x) @ oc["coef16"][d, :, r]
        orc.expect_close("spectrum model", model[:, 1], want, 1e-9)

    def _check_balloon(self, stdout, oc, frequency, distance):
        bins = oc["bins"]
        landed_f = float(stdout.splitlines()[0].split(" at ")[1].split()[0])
        orc.check_nearest_values("balloon frequency", bins, [frequency], [landed_f])
        got = np.array(orc.parse_csv(self.path("balloon.csv"))[1:], dtype=float)
        stored = oc["directions"]
        orc.check_nearest_directions(
            "balloon", oc["units"], stored[:, 0], stored[:, 1], got[:, 0], got[:, 1]
        )
        k = int(np.flatnonzero(bins == landed_f)[0])
        r = int(np.argmin(np.abs(oc["distances"] - distance)))
        want = [oc["db"][orc.stored_index(stored[:, 0], stored[:, 1], a, e), k, r]
                for a, e in got[:, :2]]
        orc.expect_close("balloon values", got[:, 2], want, 1e-9)

    def _check_extract(self, stdout, oc, *requested):
        d, r = self._landing(oc, "extract-ir", requested, stdout.splitlines()[0])
        rate, samples = orc.parse_float_wav(self.path("ir.wav"))
        if rate != int(oc["fs"]):
            raise Mismatch(f"extract-ir: sample rate {rate}")
        orc.expect_close("extract-ir samples", samples,
                         oc["irs"][d, :, r].astype(np.float32), 0.0)

    def _check_convert(self, stdout, oc):
        _, directions, _, irs = orc.parse_dird(self.path("converted.dird"))
        wrong = np.flatnonzero(np.any(irs != oc["generated"], axis=(1, 2)))
        if wrong.size:
            at_pole = np.all(directions[wrong, 1] == 90.0)
            raise Mismatch(
                f"convert: {wrong.size} directions differ from the generated HRIRs"
                + (" (all at the zenith)" if at_pole else ""),
                known=bool(at_pole),
            )


def _where(az, el, dist):
    return ["--azimuth", repr(az), "--elevation", repr(el), "--distance", repr(dist)]


def _succeeded(out):
    code, stdout, stderr = out
    if code != 0:
        raise Mismatch(f"exit code {code}: {stderr.strip()[:300]}")
    return stdout

