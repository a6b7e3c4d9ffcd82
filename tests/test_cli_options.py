"""Each CLI command takes the options it reads and no other, and a config
value that the command cannot use exits 2 instead of ending in a
traceback."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalebreak import PiecewiseSpec, default_params, simulate_piecewise
from scalebreak.cli import build_parser, main
from scalebreak.errors import ValidationError
from scalebreak.synth import _number

COMMON = {"config", "family", "m", "n", "seed", "out", "delta", "exponents", "band"}
PROCESS = {"tau", "sigmas"}
RUN = {
    "ell", "kappa", "q", "wavelet_band", "trim", "a_base", "v_n", "min_len",
    "stride", "min_det_scale", "profile",
}
OPTIONS = {
    "simulate": COMMON | PROCESS,
    "detect": COMMON | RUN | {"input", "ci_level"},
    "montecarlo": COMMON | PROCESS | RUN | {"reps", "fgls"},
}

# Flags that each command accepted and ignored before it took only its own.
DROPPED = [
    ("simulate", ["--ell", "6"]),
    ("simulate", ["--kappa", "0.05"]),
    ("simulate", ["--wavelet", "3"]),
    ("simulate", ["--wavelet-band", "2", "3"]),
    ("simulate", ["--trim", "0.1"]),
    ("simulate", ["--a-base", "2"]),
    ("simulate", ["--v-n", "8"]),
    ("simulate", ["--min-len", "100"]),
    ("simulate", ["--stride", "1"]),
    ("simulate", ["--ci-level", "0.9"]),
    ("simulate", ["--min-det-scale", "20"]),
    ("simulate", ["--profile", "tuned"]),
    ("detect", ["--tau", "0.5"]),
    ("detect", ["--sigmas", "1"]),
    ("montecarlo", ["--ci-level", "0.9"]),
]

FGN = {"family": "fgn", "n": 2000, "tau": [0.5], "exponents": [0.3, 0.7], "ell": 6,
       "reps": 2, "seed": 1}
LOCFRAC = {"family": "locfrac", "band": [0.3, 1.2], "delta": 0.25}


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return path


def noise_csv(path, n=2000):
    np.savetxt(path, np.random.default_rng(6).normal(size=n + 1))
    return path


def run_hash(command, out):
    """The config hash a finished run wrote into its output."""
    if command == "simulate":
        out = out.with_name(out.name + ".meta.json")
    if command in ("simulate", "detect"):
        return json.loads(out.read_text())["config_hash"]
    return out.read_text().splitlines()[0].split()[1].removeprefix("config_hash=")


@pytest.mark.parametrize("command", OPTIONS)
def test_each_command_takes_its_own_options(command):
    args = vars(build_parser().parse_args([command]))
    assert set(args) - {"command"} == OPTIONS[command]


@pytest.mark.parametrize("command, flag", DROPPED)
def test_dropped_flag_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--family", "fgn", *flag, "--out", "unused")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_config_serves_every_command(tmp_path):
    shared = write_config(
        tmp_path / "shared.json", {**FGN, "ci_level": 0.9, "fgls": False}
    )
    series = tmp_path / "series.csv"
    outputs = {"simulate": series, "detect": tmp_path / "result.json",
               "montecarlo": tmp_path / "mc.csv"}
    for command, out in outputs.items():
        files = ["--input", series] if command == "detect" else []
        assert run_cli(command, "--config", shared, *files, "--out", out) == 0
    meta = json.loads((tmp_path / "series.csv.meta.json").read_text())
    assert set(meta["config"]) == {"family", "n", "tau", "exponents", "seed", "m", "out"}
    # The keys another command reads leave each command's hash as it is.
    own = {
        "simulate": ("family", "n", "tau", "exponents", "seed"),
        "detect": ("family", "n", "exponents", "seed", "ell", "ci_level"),
        "montecarlo": ("family", "n", "tau", "exponents", "seed", "ell", "reps", "fgls"),
    }
    cfg = {**FGN, "ci_level": 0.9, "fgls": False}
    for command, keys in own.items():
        alone = write_config(tmp_path / f"{command}.json", {k: cfg[k] for k in keys})
        out = tmp_path / f"alone-{outputs[command].name}"
        files = ["--input", series] if command == "detect" else []
        assert run_cli(command, "--config", alone, *files, "--out", out) == 0
        assert run_hash(command, out) == run_hash(command, outputs[command])


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
@pytest.mark.parametrize("m", [0, 2])
def test_m_that_disagrees_with_tau_exits_2(tmp_path, capsys, command, m):
    code = run_cli(
        command, "--family", "fgn", "--n", "2000", "--m", m, "--tau", "0.5",
        "--exponents", "0.3", "0.7", "--out", tmp_path / "out.csv",
    )
    assert code == 2
    assert f"m={m} but tau holds 1 change fractions" in capsys.readouterr().err
    cfg = write_config(tmp_path / "cfg.json", {**FGN, "m": m})
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out.csv") == 2


def test_montecarlo_m_follows_tau(tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli(
        "montecarlo", "--family", "fgn", "--n", "2000", "--tau", "0.5",
        "--exponents", "0.3", "0.7", "--ell", "6", "--reps", "2", "--out", out,
    ) == 0
    assert out.read_text().splitlines()[1].startswith("rep,seed,tau_1,")


def run_config(tmp_path, command, cfg):
    """Run ``command`` on FGN updated by ``cfg``; detect reads a noise series
    of FGN's length unless ``cfg`` names its input."""
    path = write_config(tmp_path / "cfg.json", {**FGN, **cfg})
    files = []
    if command == "detect" and "input" not in cfg:
        files = ["--input", noise_csv(tmp_path / "series.csv")]
    out = [] if "out" in cfg else ["--out", tmp_path / "out"]
    return run_cli(command, "--config", path, *files, *out)


@pytest.mark.parametrize("command", ["simulate", "detect", "montecarlo"])
@pytest.mark.parametrize("cfg, message", [
    ({"family": "3"}, "family must be one of fgn, farima, fbm, locfrac, got '3'"),
    ({"family": ["fgn"]}, "family must be one of fgn, farima, fbm, locfrac, got ['fgn']"),
    ({"seed": True}, "seed must be a number, got True"),
    ({"out": 3}, "out must be a file name, got 3"),
])
def test_config_value_exits_2_on_every_command(tmp_path, capsys, command, cfg, message):
    assert run_config(tmp_path, command, cfg) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", {**LOCFRAC, "band": 0.5},
     "freq_band must be two numbers, got 0.5"),
    ("montecarlo", {**LOCFRAC, "band": 0.5},
     "freq_band must be two numbers, got 0.5"),
    ("detect", {"a_base": 1e308}, "a_base must be at most N=2000, got 1e+308"),
    ("montecarlo", {"a_base": 1e308}, "a_base must be at most N=2000, got 1e+308"),
    ("detect", {"input": 3}, "input must be a file name, got 3"),
    ("detect", {"ci_level": False}, "ci_level must be a number, got False"),
    ("simulate", {"seed": -1}, "seed must be nonnegative, got -1"),
    ("montecarlo", {"seed": -1}, "seed must be nonnegative, got -1"),
    ("montecarlo", {"fgls": "no"}, "fgls must be true or false, got 'no'"),
    ("montecarlo", {"fgls": 1}, "fgls must be true or false, got 1"),
    ("simulate", {"sigmas": [1.0, 1e155]},
     "sigmas must be positive with a finite, nonzero square"),
    ("simulate", {**LOCFRAC, "exponents": [0.3, 1000]},
     "exponent 1000.0 with scale 1.0 overflows the spectrum on the band"),
    ("simulate", {**LOCFRAC, "delta": 1e-300},
     "segment too short at this sampling step"),
    ("montecarlo", {**LOCFRAC, "band": [1e-300, 1e-299]},
     "band puts scales past N=2000 at delta=0.25"),
    ("detect", {**LOCFRAC, "delta": 5e-324}, "band puts scales past N=2000"),
])
def test_config_value_exits_2(tmp_path, capsys, command, cfg, message):
    assert run_config(tmp_path, command, cfg) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (b"{bad", "config is not JSON: Expecting property name"),
    (b"\xff", "config is not JSON: 'utf-8' codec can't decode"),
    (b"[1, 2]", "config must be a JSON object, not list"),
    (b"null", "config must be a JSON object, not NoneType"),
])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    code = run_cli("simulate", "--config", cfg, "--family", "fgn", "--n", "100",
                   "--exponents", "0.5", "--out", tmp_path / "out")
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [-400.0, 100.0])
def test_locfrac_steep_spectrum_simulates(exponent):
    # The spectrum's power is taken on the band alone: past it, at the
    # grid's lowest and highest frequencies, it would overflow.
    spec = PiecewiseSpec(family="locfrac", exponents=(exponent,), freq_band=(0.3, 1.2))
    path = simulate_piecewise(spec, 2000, delta=0.25, seed=1)
    assert np.all(np.isfinite(path.values))


@pytest.mark.parametrize("family", ["3", ["fgn"], None, 0])
def test_library_refuses_unknown_family(family):
    with pytest.raises(ValidationError, match="family must be one of"):
        default_params(family, 2000)
    with pytest.raises(ValidationError, match="family must be one of"):
        PiecewiseSpec(family=family)


@pytest.mark.parametrize("a_base, message", [
    (2001, "a_base must be at most N=2000"),
    (1e308, "a_base must be at most N=2000"),
    (math.nan, "a_base must be at most N=2000"),
    (math.inf, "a_base must be at most N=2000"),
    (0.5, "scales must be integers"),
    (0, "base scale must be positive"),
])
def test_default_params_refuses_a_base_outside_1_to_n(a_base, message):
    with pytest.raises(ValidationError, match=message):
        default_params("fgn", 2000, a_base=a_base)


def test_number_refuses_booleans():
    with pytest.raises(ValidationError, match="ell must be a number, got True"):
        _number("ell", True, int)
    with pytest.raises(ValidationError, match="ell must be a number, got False"):
        default_params("fgn", 2000, ell=False)


def test_simulate_refuses_a_negative_seed():
    spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        simulate_piecewise(spec, 100, seed=-1)


# ---------------------------------------------------------------------------
# Property: whatever the config file holds, the CLI exits 0, 2, 3 or 4.

BOUNDS = {"n": 3000, "m": 3, "ell": 12, "reps": 3}
KEYS = sorted(set().union(*OPTIONS.values()) - {"config"})
BASES = {
    "fgn": FGN,
    "farima": {**FGN, "family": "farima"},
    "fbm": {**FGN, "family": "fbm"},
    "locfrac": {**FGN, "family": "locfrac", "n": 3000, "exponents": [0.3, 1.0],
                "ell": 5, "band": [0.3, 1.2], "delta": 0.25},
}
SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0, -1, 0.5, 1, 2, 3]
STRINGS = ["", "abc", "fgn", "farima", "fbm", "locfrac", "tuned", "classic", "nan"]


def numbers(key):
    bound = BOUNDS.get(key)
    if bound is not None:
        return st.one_of(
            st.integers(-3, bound), st.floats(-3, bound),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        )
    return st.one_of(
        st.sampled_from(SPECIAL), st.integers(-10, 10_000), st.floats(-1e6, 1e6),
    )


def values(key):
    # m follows the length of tau, so tau keeps m's bound.
    items = numbers("m" if key == "tau" else key)
    return st.one_of(
        numbers(key),
        numbers(key).map(str),
        st.sampled_from(STRINGS),
        st.lists(items, max_size=3 if key == "tau" else 4),
        st.dictionaries(st.sampled_from(["a", "1"]), items, max_size=2),
        st.booleans(),
        st.none(),
    )


configs = st.tuples(
    st.sampled_from(["simulate", "detect", "montecarlo"]),
    st.sampled_from(sorted(BASES)),
    st.lists(st.sampled_from(KEYS).flatmap(lambda k: st.tuples(st.just(k), values(k))),
             min_size=1, max_size=4),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-property")
    for n in (2000, 3000):
        noise_csv(path / f"series-{n}.csv", n)
    return path


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=configs)
def test_any_config_exits_with_a_documented_code(workdir, case):
    command, family, changes = case
    cfg = {**BASES[family], **dict(changes)}
    path = write_config(workdir / "cfg.json", cfg)
    series = workdir / f"series-{BASES[family]['n']}.csv"
    files = ["--input", series] if command == "detect" else []
    code = run_cli(command, "--config", path, *files, "--out", workdir / "out.csv")
    assert code in (0, 2, 3, 4)
