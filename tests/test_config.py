"""Config schemas under fuzzing: any JSON value in any field either yields a
validated config or raises ConfigError, never another exception.

No model is built from the fuzzed configs: a huge but valid ``L`` would
allocate accordingly.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrec.config import GeneratorConfig, ModelConfig
from longrec.errors import ConfigError

MODEL_PAYLOAD = {"L": 16, "d": 3, "K": 2, "m": 3, "k": 4, "N": 2, "vocab": 30,
                 "n_users": 40, "head_hidden": 6, "lr": 0.01}
GEN_PAYLOAD = {"n_users": 20, "vocab": 24, "L_max": 12, "L_min": 6,
               "n_interests": 4, "interests_per_user": 2, "plant_gap": 4}

JSON_VALUES = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@pytest.mark.parametrize("cls,base", [(ModelConfig, MODEL_PAYLOAD),
                                      (GeneratorConfig, GEN_PAYLOAD)],
                         ids=["model", "generator"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_fuzzed_field_validates_or_raises_config_error(cls, base, data):
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]))
    payload = {**base, name: data.draw(JSON_VALUES)}
    try:
        cfg = cls.from_dict(payload)
    except ConfigError:
        return
    assert isinstance(cfg, cls)
    assert cfg.validate() is cfg


def test_base_payloads_are_valid():
    assert ModelConfig.from_dict(MODEL_PAYLOAD).L == 16
    assert GeneratorConfig.from_dict(GEN_PAYLOAD).plant_gap == 4
