"""default_params reads every option it takes: None means the default, a set
value is always read, and each family refuses the options it never reads."""

import inspect

import numpy as np
import pytest

from scalebreak import ValidationError, default_params
from scalebreak.cli import main

N = 16000
FAMILIES = ("fgn", "farima", "fbm", "locfrac")
KEYWORDS = tuple(inspect.signature(default_params).parameters)[2:]

# A valid value other than the default for each keyword; locfrac runs start
# from BAND, so theirs differ from BAND.
OTHER = {
    "m": 1, "delta": 0.5, "ell": 8, "kappa": 0.1, "q": 5, "a_base": 8, "v_n": 50.0,
    "min_len": 3000, "stride": 7, "exponent_spread": 0.3, "freq_band": (0.3, 1.0),
    "wavelet_band": (2.0, 2.5), "trim": 0.2, "min_det_scale": 5, "profile": "classic",
}
BAND = {"freq_band": (0.3, 1.2), "delta": 0.25}
OTHER_LOCFRAC = {**OTHER, "delta": 0.2}

# The family x option pairs default_params refuses: the options a family
# never reads.
REFUSED = {
    ("locfrac", "q"), ("locfrac", "min_det_scale"), ("fbm", "min_det_scale"),
    *((family, name) for family in ("fgn", "farima", "fbm")
      for name in ("freq_band", "wavelet_band", "trim")),
}


def base(family):
    return {"ell": 7, **(BAND if family == "locfrac" else {})}


def outcome(family, **kwargs):
    """The RunParams of a call, or the message of its ValidationError."""
    try:
        return default_params(family, N, **kwargs)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("name", KEYWORDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_option_is_read_or_refused(family, name):
    value = (OTHER_LOCFRAC if family == "locfrac" else OTHER)[name]
    kwargs = {**base(family), name: value}
    if (family, name) in REFUSED:
        with pytest.raises(ValidationError, match=f"{family} runs do not read {name}"):
            default_params(family, N, **kwargs)
        return
    params = default_params(family, N, **kwargs)
    if name == "exponent_spread" and family != "fbm":
        # The one documented exception: the spread describes the process,
        # and only fbm's margin schedule reads it.
        assert params == default_params(family, N, **base(family))
    else:
        assert params != default_params(family, N, **base(family))


@pytest.mark.parametrize("name", KEYWORDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_none_means_the_default(family, name):
    omitted = {k: v for k, v in base(family).items() if k != name}
    assert outcome(family, **omitted, **{name: None}) == outcome(family, **omitted)


@pytest.mark.parametrize("family", ["fgn", "farima"])
def test_zero_min_det_scale_is_refused_not_the_default(family):
    with pytest.raises(ValidationError, match="scale ratios must be positive"):
        default_params(family, N, min_det_scale=0)


FLAGS = {
    "q": ["--wavelet", "5"],
    "min_det_scale": ["--min-det-scale", "9"],
    "freq_band": ["--band", "0.3", "1.2"],
    "wavelet_band": ["--wavelet-band", "2", "2.5"],
    "trim": ["--trim", "0.2"],
}


@pytest.mark.parametrize("family, name", sorted(REFUSED))
def test_refused_pair_exits_2_through_the_cli(tmp_path, capsys, family, name):
    series = tmp_path / "series.csv"
    np.savetxt(series, np.random.default_rng(6).normal(size=2001))
    flags = FLAGS[name]
    if family == "locfrac":
        flags = [*flags, "--band", "0.3", "1.2", "--delta", "0.25"]
    out = tmp_path / "res.json"
    argv = ["detect", "--family", family, *flags, "--input", series, "--out", out]
    assert main([str(a) for a in argv]) == 2
    assert f"{family} runs do not read {name}" in capsys.readouterr().err
    assert not out.exists()
