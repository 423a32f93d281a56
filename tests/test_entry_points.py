"""Contract of the entry points that perfbench and the acceptance gate call.

perfbench reads the attack arguments by name (epsilon, models, cfg,
source_models, x, y) and asserts that generator.project is the attacks
function, so renaming any of these breaks the benchmark, not just callers.
"""

import inspect

import advgrad.attacks
import advgrad.generator


def parameters(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


def test_run_attack_adaptive_parameters():
    empty = inspect.Parameter.empty
    assert parameters(advgrad.generator.run_attack_adaptive) == [
        ("gen", empty), ("models", empty), ("x", empty), ("y", empty),
        ("epsilon", empty), ("steps", empty), ("target_models", None),
    ]


def test_run_attack_parameters():
    empty = inspect.Parameter.empty
    assert parameters(advgrad.attacks.run_attack) == [
        ("source_models", empty), ("target_models", empty), ("x", empty),
        ("y", empty), ("cfg", empty), ("rng", None),
    ]


def test_generator_reexports_project():
    assert advgrad.generator.project is advgrad.attacks.project
