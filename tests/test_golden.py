"""Golden outputs of every distinct embedded table config.

Each digest is the sha256 of the CSV that ``write_trajectory_csv`` writes for
the first table row using that config.  A refactor that changes any byte of
any of these runs fails here; a change meant to alter outputs updates the
digests and says why.

Summary CSV bytes are not pinned, because ``mean_abs_dP`` depends on the
reference oracle's rounding.  Its value is pinned instead, to the tolerance
the oracle can be trusted to: 1e-9 relative on the linear preset and 1e-4 on
the nonlinear one, whose square-root damping law limits every solver's
accuracy near velocity reversals.
"""

import hashlib
import io
from functools import lru_cache

import pytest

from eccosim.bench import run_experiment, summarize_experiment, write_trajectory_csv
from eccosim.cli import EXPECTED_TABLES

TRAJECTORY_SHA256 = {
    "T3:constant": "4e8ca3be591207f5963f3796fa6b1800cd92d2581c9c947eb990abd7ba31f92c",
    "T3:ecco-2.8e-6": "aa191f084fe6672e80b882d848627218e5ecad2b5efacdb3df9c2f7d4dff8eda",
    "T3:ecco-3.1e-5": "57a3f54c4fd0e050075ac3d279087426407d70c75e5c96930675e50c6f023432",
    "T7:constant": "5983bd433fb547070b7bc20e40f0aa8fa89b9fd5d698932a122e1578a82ea478",
    "T7:ecco-7.5e-6": "f7650ce4a23dc8d7c538f13e163fd9ec6c7e8c84aca1078fbd1d299742ced9ba",
    "T7:ecco-1.0e-4": "0593f31cdc14319cf7ac032bb638379d8a53a6841cbc1cac49cb91a9c13fce1c",
    "T8:constant": "89b6bb028c292703d11322f378ddf3a8eaea35c8eb89f7a49362ef3817bbd464",
    "T8:ecco-9.1e-7": "f3984d808269d457a55049ea35a5e194b965e431b213565ae605975ba759eb90",
    "T9:constant": "a7165b1fd504d59a39ec69a63b6f77b7c98bac5d85dccb6db62acf61ac78636b",
    "T9:ecco-2.4e-5": "f5436c344f54f437651cdc8b278934ef8d0188b0a7e3a1689021fae6750fe134",
    "T10:constant": "f6f079816a85763fb3eb618643dc7df3d62e37eb750c7a6338c8013aae843629",
    "T10:ecco-1.0e-6": "538515f640fa3c64d113b35d2e907cff8833b7484b25af07d27e0bb40d5cfce0",
    "PC-linear:pc-6.7e-1": "f523d9c28aa80e6375e26dfc7b216dc4339fd02ec9b7368413e00af56c3ab586",
    "PC-nonlinear:pc-2.1": "8316986f35b2a2d88aaeb15005fc025718b228d6ec51b9a64af81600f047dabf",
    "PC-altA:pc-6.0e-1": "3b4968192b3086457c908f26f91e691d3045d290a1f70a9d01dcc36e7cc49eb1",
    "PC-altB:pc-6.5": "32b37166142e42b27e8a96cb8e06e7a148f1b9cf0f20c91c0fe2f1f2b27c2a0b",
}

MEAN_ABS_DP = {
    "T3:constant": 1.2276880651967483,
    "T3:ecco-2.8e-6": 0.3968809122609386,
    "T3:ecco-3.1e-5": 1.2422370382700536,
    "T7:constant": 3.6025354859283443,
    "T7:ecco-7.5e-6": 1.1208061171228094,
    "T7:ecco-1.0e-4": 3.9380978157471715,
    "T8:constant": 11.833812181453107,
    "T8:ecco-9.1e-7": 1.1916035550900608,
    "T9:constant": 30.37588511002591,
    "T9:ecco-2.4e-5": 5.501564875124897,
    "T10:constant": 37.917711171271655,
    "T10:ecco-1.0e-6": 3.488865785631727,
    "PC-linear:pc-6.7e-1": 0.789975951526364,
    "PC-nonlinear:pc-2.1": 1.938450126227765,
    "PC-altA:pc-6.0e-1": 1.3678350963724433,
    "PC-altB:pc-6.5": 20.310706479178084,
}

SUMMARY_REL_TOL = {"linear": 1e-9, "nonlinear": 1e-4}


def _distinct_configs():
    """Distinct table configs keyed by the first ``TABLE:label`` using each."""
    first = {}
    for table_id, table in EXPECTED_TABLES.items():
        for row in table.rows:
            first.setdefault(row.config, f"{table_id}:{row.label}")
    return {key: cfg for cfg, key in first.items()}


@lru_cache(maxsize=None)
def _outputs(key):
    """(trajectory CSV sha256, summary) of one run; the record itself is not kept."""
    cfg = _distinct_configs()[key]
    record = run_experiment(cfg)
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), summarize_experiment(cfg, record)


def test_every_distinct_table_config_is_pinned():
    assert set(_distinct_configs()) == set(TRAJECTORY_SHA256) == set(MEAN_ABS_DP)


@pytest.mark.parametrize("key", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes_are_pinned(key):
    assert _outputs(key)[0] == TRAJECTORY_SHA256[key]


@pytest.mark.parametrize("key", sorted(MEAN_ABS_DP))
def test_summary_mean_abs_dp_is_pinned(key):
    rel = SUMMARY_REL_TOL[_distinct_configs()[key].preset]
    assert _outputs(key)[1].mean_abs_dP == pytest.approx(MEAN_ABS_DP[key], rel=rel, abs=0)
