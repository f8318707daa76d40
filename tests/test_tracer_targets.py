"""The benchmark tracer's targets still resolve, with the parameters it reads.

``perfbench/tracer.py`` wraps library functions by name and its work
counters read their arguments by position and name.  A rename or a
reordered signature would only show up in a slow traced run, so this
test loads the tracer by path (without installing it), resolves every
``TARGETS`` entry the way ``install`` does, and probes each counter for
the argument it reads.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Every parameter some counter reads today; the probe must find them all.
READ_PARAMETERS = {
    "outcomes",
    "indices",
    "level1_indices",
    "chunk",
    "key",
    "trace",
    "traces",
    "experiment_id",
    "payloads",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


class _Read(Exception):
    """Raised by the probe at the first argument a counter reads."""

    def __init__(self, position, name):
        super().__init__(position, name)
        self.position = position
        self.name = name


class _Probe(tracer.Call):
    """A call whose first argument read stops the counter and is recorded."""

    def __init__(self):
        super().__init__(
            args=(None,),
            kwargs={},
            result=object(),
            seconds=0.0,
            outermost=True,
            memo_miss=True,
        )

    def arg(self, position, name):
        raise _Read(position, name)


def _argument_read(count):
    """``(position, name)`` of the argument ``count`` reads, or None."""
    try:
        for _ in count(_Probe()):
            pass
    except _Read as read:
        return read.position, read.name
    except (TypeError, AttributeError):
        return None  # the counter reads only the call's result
    return None


def _resolve(module_name, attribute):
    """The function ``install`` would wrap for one target."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    if owner_name:
        raw = getattr(module, owner_name).__dict__[name]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, name)


@pytest.mark.parametrize(
    "module_name, attribute, count",
    [(target[0], target[1], target[3]) for target in tracer.TARGETS],
    ids=[f"{target[0]}.{target[1]}" for target in tracer.TARGETS],
)
def test_target_resolves_with_the_parameter_its_counter_reads(
    module_name, attribute, count
):
    function = _resolve(module_name, attribute)
    assert callable(function)
    if count is None:
        return
    read = _argument_read(count)
    if read is None:
        return
    position, name = read
    parameters = list(inspect.signature(function).parameters)
    assert name in parameters, f"{attribute} lost parameter {name!r}"
    assert parameters.index(name) == position, (
        f"{attribute} moved parameter {name!r} from position {position} "
        f"to {parameters.index(name)}"
    )


def test_probe_finds_every_parameter_the_counters_read():
    found = {
        read[1]
        for target in tracer.TARGETS
        if target[3] is not None
        for read in [_argument_read(target[3])]
        if read is not None
    }
    assert found == READ_PARAMETERS
