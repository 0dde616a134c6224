"""Golden outputs of every distinct embedded table config.

Each digest is the sha256 of the CSV that ``write_trajectory_csv`` writes for
the first table row using that config.  A refactor that changes any byte of
any of these runs fails here; a change meant to alter outputs updates the
digests and says why.

Summary CSV bytes are not pinned, because ``mean_abs_dP`` depends on the
reference oracle's rounding.  Its value is pinned instead, to the tolerance
the oracle can be trusted to: 1e-9 relative on the linear preset and 1e-8 on
the nonlinear one, whose square-root damping law slows the oracle's
convergence near velocity reversals; tightening the oracle from 1e-13 to
1e-14 moves a nonlinear value by under 5e-10.  The other summary fields do
not read the oracle, so they are pinned exactly.  The default ``sweep`` is pinned the
same way: its step sizes and residual estimates exactly, its ``mean_abs_dP``
to the linear tolerance.
"""

import hashlib
import io
from functools import lru_cache

import pytest

from sweeps import default_sweep

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
    "T3:constant": 1.2276880652214333,
    "T3:ecco-2.8e-6": 0.39737461566156984,
    "T3:ecco-3.1e-5": 1.2422704234766444,
    "T7:constant": 3.6025349464767005,
    "T7:ecco-7.5e-6": 1.1206954392205217,
    "T7:ecco-1.0e-4": 3.9375148718567257,
    "T8:constant": 11.833812181532831,
    "T8:ecco-9.1e-7": 1.2081398511888426,
    "T9:constant": 30.3759321995709,
    "T9:ecco-2.4e-5": 5.509321076763683,
    "T10:constant": 37.91771117136804,
    "T10:ecco-1.0e-6": 3.494074564934328,
    "PC-linear:pc-6.7e-1": 0.7903656713246414,
    "PC-nonlinear:pc-2.1": 1.9384711109345185,
    "PC-altA:pc-6.0e-1": 1.3719980158127811,
    "PC-altB:pc-6.5": 20.321851308121175,
}

#: (mean_P12, total_residual, mean_dt, step_count): the summary fields that do
#: not depend on the reference oracle, so they are pinned exactly.
SUMMARY_EXACT = {
    "T3:constant": (0.39207904314303854, -6.349012156713895, 0.001, 4000),
    "T3:ecco-2.8e-6": (0.04082741672469492, -1.6124610418012886, 0.001002004008016032, 3992),
    "T3:ecco-3.1e-5": (0.1168582368593265, -4.970879080833826, 0.002932551319648094, 1364),
    "T7:constant": (0.6026701757572658, -4.8183992182631, 0.001, 2000),
    "T7:ecco-7.5e-6": (-0.019906691328166914, -1.6104876806017043, 0.000998502246630055, 2003),
    "T7:ecco-1.0e-4": (-0.0054181736629459465, -5.870304536919774, 0.003134796238244514, 638),
    "T8:constant": (-191.6894642709254, 22.731508805836604, 0.001, 4000),
    "T8:ecco-9.1e-7": (-187.88730124486304, 1.5603805689324448, 0.0010025062656641604, 3990),
    "T9:constant": (-391.41183477893736, 45.417104264333844, 0.001, 2000),
    "T9:ecco-2.4e-5": (-377.856452536372, 5.2202219018675216, 0.0010095911155981827, 1981),
    "T10:constant": (-219.98364291078556, 26.482286238067065, 0.001, 4000),
    "T10:ecco-1.0e-6": (-190.39813874450883, 1.5908161676926393, 0.0009995002498750624, 4002),
    "PC-linear:pc-6.7e-1": (0.2632771208679139, -3.0791984266469057, 0.0010222335803731152, 3913),
    "PC-nonlinear:pc-2.1": (0.537385695017798, -3.3593514004999836, 0.0010152284263959391, 1970),
    "PC-altA:pc-6.0e-1": (-187.9146211796515, 1.7474686718568018, 0.0010196278358399185, 3923),
    "PC-altB:pc-6.5": (-394.1116966345262, 22.42238621533261, 0.0010576414595452142, 1891),
}

SUMMARY_REL_TOL = {"linear": 1e-9, "nonlinear": 1e-8}

#: (dt, mean_abs_dP, residual_estimate) of each point of the default ``sweep``
#: (linear preset, reticulation A, 4 s, 9 steps from 0.1 to 10 ms).  ``dt`` and
#: ``residual_estimate`` do not read the oracle and are pinned exactly;
#: ``mean_abs_dP`` is pinned to ``SUMMARY_REL_TOL["linear"]``.
DEFAULT_SWEEP = (
    (0.0001, 0.12086126868876125, 0.11276966577336353),
    (0.00017782794100389227, 0.21521392119318472, 0.20090093341426452),
    (0.00031622776601683794, 0.3836295890152404, 0.35841036306966606),
    (0.0005623413251903491, 0.6851205354723157, 0.6410057937015121),
    (0.001, 1.2276880652214333, 1.1513432904277556),
    (0.0017782794100389228, 2.2132552587648875, 2.083681621081121),
    (0.0031622776601683794, 4.035015915241826, 3.816817284027928),
    (0.005623413251903491, 7.489196233363692, 7.137467468612026),
    (0.01, 14.47367860054538, 13.826277517692594),
)


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
    assert set(SUMMARY_EXACT) == set(MEAN_ABS_DP)


@pytest.mark.parametrize("key", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes_are_pinned(key):
    assert _outputs(key)[0] == TRAJECTORY_SHA256[key]


@pytest.mark.parametrize("key", sorted(MEAN_ABS_DP))
def test_summary_mean_abs_dp_is_pinned(key):
    rel = SUMMARY_REL_TOL[_distinct_configs()[key].preset]
    assert _outputs(key)[1].mean_abs_dP == pytest.approx(MEAN_ABS_DP[key], rel=rel, abs=0)


@pytest.mark.parametrize("key", sorted(SUMMARY_EXACT))
def test_summary_exact_fields_are_pinned(key):
    s = _outputs(key)[1]
    assert (s.mean_P12, s.total_residual, s.mean_dt, s.step_count) == SUMMARY_EXACT[key]


def test_default_sweep_is_pinned():
    points = default_sweep()
    assert [(p.dt, p.residual_estimate) for p in points] == [(dt, res) for dt, _, res in DEFAULT_SWEEP]
    rel = SUMMARY_REL_TOL["linear"]
    assert [p.mean_abs_dP for p in points] == [
        pytest.approx(dp, rel=rel, abs=0) for _, dp, _ in DEFAULT_SWEEP
    ]
