"""Property test: config_from_dict returns a config or raises ConfigError, whatever it is given."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arcsim.harness import ConfigError, ExperimentConfig, config_from_dict  # noqa: E402

# Anything json.loads can return, with the non-finite floats Python's parser accepts.
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Values of the right kind, mostly in range, with bools, huge counts and non-finite reals mixed in.
counts = st.integers(min_value=-1, max_value=3000) | st.sampled_from([True, 10**9, 2**64])
reals = st.floats(min_value=-1.0, max_value=2.0) | st.sampled_from([0, 1, True, float("nan"), float("inf")])
configs = st.fixed_dictionaries(
    {"model": st.sampled_from(["mfim", "kerr", "rabi"])},
    optional={
        "params": st.dictionaries(st.sampled_from(["L", "D", "J", "K", "g"]), counts | reals, max_size=2),
        "initial_state": st.sampled_from(["0011", "(|1⟩+|5⟩)/√2"]),
        "protocols": st.lists(st.sampled_from(["arc", "rc", "equal", "exact", "trotter1"]),
                              min_size=1, max_size=3),
        "plan": st.fixed_dictionaries(
            {"mode": st.sampled_from(["fixed_dt", "fixed_t"])},
            optional={"dt": reals, "n_list": st.lists(counts, max_size=3), "t": reals,
                      "dt_list": st.lists(reals, max_size=3)},
        ),
        "trajectories": counts,
        "noise_std": reals,
        "master_seed": counts,
        "include_bounds": st.booleans(),
        "ptrace_trajectories": counts,
        "shot_params": st.fixed_dictionaries(
            {key: counts | reals for key in ("k", "w", "S", "R", "n_qubits", "eps_stat")}
        ),
    },
)
KEYS = ["model", "params", "initial_state", "protocols", "plan", "trajectories", "noise_std",
        "master_seed", "out", "format", "include_bounds", "ptrace_trajectories", "shot_params"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs, st.sampled_from([None, None, "bogus", *KEYS]), junk)
@example([], None, None)
@example("mfim", None, None)
def test_config_from_dict_accepts_or_raises_config_error(raw, key, value):
    if key is not None:  # one key replaced by an arbitrary JSON value
        raw = {**raw, key: value}
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    # an accepted config's own document is accepted again, unchanged
    assert config_from_dict(config.to_dict()).to_dict() == config.to_dict()
