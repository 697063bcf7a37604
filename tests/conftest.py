import dataclasses
import inspect
import pickle

import pytest

from koverbs import lexicon as lexicon_mod
from koverbs import load_expectations, load_lexicon


def shipped_paths():
    base = lexicon_mod.default_data_dir()
    return (
        base / lexicon_mod.ENDINGS_FILE,
        base / lexicon_mod.VERBS_FILE,
        base / lexicon_mod.TEMPLATE_FILE,
    )


@pytest.fixture(scope="session")
def data_dir():
    return lexicon_mod.default_data_dir()


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(*shipped_paths())


@pytest.fixture(scope="session")
def expectations(data_dir):
    return load_expectations(data_dir / lexicon_mod.EXPECTATIONS_FILE)


def assert_acts_as_frozen_dataclass(cls, records, order=False):
    """Check that records of `cls`, whose __init__ is hand-written, act as a plain
    frozen dataclass with the same fields (its twin) does: equality, hash, order,
    repr, replace, astuple, pickling and refused assignment."""
    names = [f.name for f in dataclasses.fields(cls)]
    # A field added later must be an __init__ parameter too, in field order.
    assert list(inspect.signature(cls.__init__).parameters)[1:] == names
    twin_cls = dataclasses.make_dataclass(cls.__name__, names, frozen=True, order=order)
    values = [[getattr(record, name) for name in names] for record in records]
    # Equal but distinct instances, built by keyword (the package builds by position).
    records = [*records, *(cls(**dict(zip(names, v))) for v in values)]
    twins = [twin_cls(*v) for v in values] * 2
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert dataclasses.astuple(record) == dataclasses.astuple(twin)
        assert repr(dataclasses.replace(record)) == repr(twin)
        changed = {names[0]: "바뀐"}
        assert repr(dataclasses.replace(record, **changed)) == repr(
            dataclasses.replace(twin, **changed))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and repr(copy) == repr(record)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert vars(record) == vars(twin)  # the fields, no more, and unchanged
    for a, ta in zip(records, twins):
        for b, tb in zip(records, twins):
            assert (a == b, a != b) == (ta == tb, ta != tb)
            if order:
                assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    if order:
        assert [repr(r) for r in sorted(records)] == [repr(t) for t in sorted(twins)]
