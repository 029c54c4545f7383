"""The package names the benchmark reaches from outside.

``bench/tracer.py`` wraps the functions named in its ``SPANS`` at their
callers' lookup names, reads ``.gains.size`` off each sampled gain matrix
and reads the training results (``fl.benchmark``, each round's
``wall_time`` and ``participants``, ``TrainingDivergedError.records``);
``bench/child.py`` drives ``cli.load_config`` and ``cli.main``;
``bench/checks.py`` expects the default variants' output files under its
own list of labels.  Removing or reshaping one of them breaks benchmark
runs, so the names are checked here, in the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fluidfed
from fluidfed import cli, fedlearn, montecarlo
from fluidfed.channel import Clayton, Independent
from fluidfed.ota import OtaConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """``bench/<name>.py`` as a module, read only."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load("tracer")
SPANS = [attr for attr, _ in TRACER_MODULE.SPANS]


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


def test_training_results_expose_what_the_tracer_reads():
    # the tracer observes records as run_training returns them, or as a
    # TrainingDivergedError carries them; this link skips every round
    fl = fedlearn.FlConfig(n_clients=3, rounds=2, samples=200, classes=2, dims=4)
    link = OtaConfig(p_max=1.0, sigma2=1.0, tau=1e-9)
    records = fedlearn.run_training(fl, link, Independent(), *fedlearn.training_data(fl, 0))
    tracer = TRACER_MODULE.Tracer()
    tracer._observe_rounds(fl, fedlearn.TrainingDivergedError("diverged", records).records)
    assert tracer.counters == {"fedlearn.rounds": 2, "ota.skipped_rounds": 2}
    assert len(tracer.round_s) == 2 and all(s >= 0 for s in tracer.round_s)


def test_default_variant_labels_are_the_names_the_checks_read(monkeypatch):
    # a label drift would fail every benchmark run as outputs_incorrect
    monkeypatch.syspath_prepend(str(BENCH))  # checks imports laws
    checks = _load("checks")
    cfg, _ = cli.load_config(None, None)
    assert tuple(dep.label for dep in cli._plan(cfg).variants) == checks.MC_VARIANTS
    train = cli._variants(cfg, "fl")
    assert tuple("ideal" if dep is None else dep.label for dep in train) == checks.TRAIN_VARIANTS
    diagnosed = tuple(Clayton(beta).label for beta in montecarlo.McPlan().diag_betas)
    assert diagnosed == tuple(f"clayton-{beta}" for beta in checks.DIAG_BETAS)
