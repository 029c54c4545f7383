"""The package names the benchmark reaches from outside.

``bench/tracer.py`` wraps the functions named in its ``SPANS`` at their
callers' lookup names and reads ``.gains.size`` off each sampled gain
matrix; ``bench/child.py`` drives ``cli.load_config`` and ``cli.main``.
Removing or reshaping one of them breaks traced benchmark runs, so the
names are checked here, in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import pytest

import fluidfed
from fluidfed import cli, fedlearn, montecarlo
from fluidfed.channel import Clayton

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = [attr for attr, _ in _load_tracer().SPANS]


@pytest.mark.parametrize("attr", SPANS)
def test_every_traced_span_resolves_on_the_package(attr):
    owner = fluidfed
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), attr


def test_child_entry_points_exist():
    assert callable(cli.load_config) and callable(cli.main)


@pytest.mark.parametrize("module", [montecarlo, fedlearn], ids=["montecarlo", "fedlearn"])
def test_sampled_gains_expose_their_size(module):
    # the tracer's observer counts channel.sample.values as result.gains.size
    assert module.sample_port_gains(Clayton(2.0), 3, 4, 0).gains.size == 12
