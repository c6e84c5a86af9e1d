"""The memo of built sides (`protocols._sides`).

A side depends only on its declarations, steps, cutoffs, scattering model
and the limits its build is checked against, so a process keeps it for later
commands.  These checks pin that a warm command prints what a cold one
prints, that a warm interferometer side propagates nothing, that kept sides
cannot be changed, that a side reading the input qubit is rebuilt, that
the kept sides stay within MAX_ARRAY_ENTRIES, and that a hit keeps its side
from being the next to leave.
"""

import contextlib
import io
from dataclasses import replace

import pytest

from omxsim import cli, constants, plans, protocols
from omxsim.protocols import InputQubit, ThermalConfig


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("renormalize", ["--renormalize", "--no-renormalize"])
@pytest.mark.parametrize("model", ["paper", "bosonic"])
@pytest.mark.parametrize("cutoff", ["1", "2", "3"])
def test_a_warm_command_prints_what_a_cold_one_prints(cutoff, model, renormalize):
    options = ["--cutoff", cutoff, "--model", model, renormalize]
    commands = [
        ["teleport", "--n-bar", "0.2", "--alpha", "0.6", "--beta", "0,0.8", *options],
        ["swap", "--n-bar", "0.3", *options],
        ["readout", "--n-bar", "0.1", "--theta", "1.1", "--phi", "0.4", *options],
        ["sweep", "--protocol", "teleport", "--from", "0", "--to", "0.6", "--steps", "37",
         "--format", "json", *options],
        ["sweep", "--protocol", "swap", "--from", "0", "--to", "0.6", "--steps", "37",
         *options],
    ]
    cold = []
    for argv in commands:
        protocols._sides.cache_clear()
        cold.append(run(argv))
    protocols._sides.cache_clear()
    for argv, want in [*zip(commands, cold), *zip(commands[::-1], cold[::-1])]:
        assert run(argv) == want
    # teleport, readout and the teleport sweep look up the (A, B) side, swap
    # and the swap sweep both interferometers: 14 lookups over the two warm
    # passes, of which only the first of each side misses
    assert tuple(protocols._sides.cache_info())[:3] == (12, 2, 2)


def interferometer_applies(monkeypatch):
    """The paths of every batch `fock.apply` is called on, one set per call."""
    seen = []
    real_apply = protocols.apply

    def spy(op, batch):
        seen.append({mode.path for mode in batch.registry.modes})
        return real_apply(op, batch)

    monkeypatch.setattr(protocols, "apply", spy)
    return seen


def test_a_warm_interferometer_side_propagates_nothing(monkeypatch):
    run(["teleport", "--n-bar", "0.1", "--alpha", "1", "--beta", "0"])
    seen = interferometer_applies(monkeypatch)
    # a new occupation, renormalization setting and qubit reach no side
    run(["teleport", "--n-bar", "0.4", "--no-renormalize", "--theta", "0.7"])
    assert seen == []
    # the swap shares the teleport's (A, B) side and builds only (C, D)
    run(["swap", "--n-bar", "0.2"])
    assert seen and all(paths == {"C", "D"} for paths in seen)
    seen.clear()
    run(["swap", "--n-bar", "0.05", "--no-renormalize"])
    assert seen == []


def test_kept_sides_are_read_only():
    run(["readout", "--n-bar", "0.2"])
    run(["swap", "--n-bar", "0.2"])
    kept = [side for side, _ in protocols._sides.values()]
    assert len(kept) == 2
    for side in kept:
        for array in (side.factors, *side.columns):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_a_side_reading_the_input_qubit_is_rebuilt(monkeypatch):
    # a wave plate on the input photon makes its side's output depend on the
    # qubit; that side is never kept, so each qubit gets its own
    def plan(qubit):
        plan = protocols.teleport_plan(qubit, ThermalConfig(0.2))
        return replace(plan, steps=plan.steps + (plans.ElementStep("hwp", ("c", 0.3)),))

    qubits = [InputQubit(1, 0), InputQubit(0.6, 0.8j), InputQubit(0, 1)]
    cold = []
    for q in qubits:
        protocols._sides.cache_clear()
        cold.append(protocols.execute_plan(plan(q)).to_json())
    protocols._sides.cache_clear()
    initial = []
    real_initial = plans.initial_vector
    monkeypatch.setattr(plans, "initial_vector",
                        lambda *args: initial.append(args) or real_initial(*args))
    assert [protocols.execute_plan(plan(q)).to_json() for q in qubits] == cold
    assert len(set(cold)) == len(qubits)
    # the interferometer side once, the input photon's side every time
    assert len(initial) == 1 + len(qubits)
    info = protocols._sides.cache_info()
    assert (info.hits, info.misses, info.sides) == (2, 1, 1)
    assert all(d.init != "qubit" for ranked, *_ in protocols._sides for _, d in ranked)


@pytest.mark.parametrize("name", [name for name, (_, kinds, _) in plans.ELEMENTS.items()
                                  if {"angle", "number"} & set(kinds)])
def test_an_argument_of_minus_zero_builds_the_element_of_zero(name):
    # a side's key holds its steps' arguments by value, where -0.0 == 0.0,
    # so a step at -0.0 is served the side built at 0.0: exact only while
    # every element builds the same matrix, bit for bit, at both
    plan = protocols.teleport_plan(InputQubit(1, 0), ThermalConfig(0.2))
    registry = plans.build_registry(plan)
    _, kinds, _ = plans.ELEMENTS[name]

    def matrix(zero: float) -> bytes:
        modes = iter([plans.ModeRef("photon", "A", "H"), plans.ModeRef("magnon", "A")])
        args = tuple(zero if kind in ("angle", "number") else "A" if kind == "path"
                     else next(modes) for kind in kinds)
        (op,) = plans.build_elements(plan, registry, [plans.ElementStep(name, args)])
        return op.matrix.tobytes()

    assert matrix(-0.0) == matrix(0.0)


def test_the_kept_sides_stay_within_the_array_limit(monkeypatch):
    # a cutoff-c interferometer side holds 31 (c + 1)^2 entries, so under
    # this limit a cutoff-5 side pushes out every other and a cutoff-6 side
    # is not kept at all, nor does it push out the cutoff-5 one
    limit = 1500
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", limit)
    sides = []
    for cutoff in range(1, 7):
        for argv in (["teleport"], ["swap"]):
            run([*argv, "--n-bar", "0.2", "--cutoff", str(cutoff)])
            info = protocols._sides.cache_info()
            assert info.entries <= constants.MAX_ARRAY_ENTRIES == limit
            assert info.entries == sum(n for _, n in protocols._sides.values())
            sides.append(info.sides)
    assert max(sides) >= 4                        # cutoffs 1 and 2 fit together
    assert sides[-4:] == [1, 1, 1, 1]
    assert protocols._sides.cache_info().entries == 31 * 6 ** 2
    # a side's count covers every array it holds: its herald factors, 21
    # entries per component, and its row-Gram columns, two per component,
    # each a key and 2 x 2 Gram entries
    monkeypatch.undo()
    protocols._sides.cache_clear()
    run(["teleport", "--n-bar", "0.2"])
    (side, entries), = protocols._sides.values()
    assert entries == 279 == 31 * 3 ** 2
    assert entries == side.factors.size + sum(array.size for array in side.columns)


def test_a_hit_makes_its_side_the_most_recently_used(monkeypatch):
    # under a limit that holds any two of sides A, B and C but not all
    # three, the side that leaves for C is the one least recently used:
    # B, once A has been hit after B was built
    a, b, c = (["teleport", "--cutoff", cutoff, "--model", model]
               for cutoff, model in (("1", "paper"), ("1", "bosonic"), ("2", "paper")))
    sizes = []
    for argv in (a, b, c):
        protocols._sides.cache_clear()
        run(argv)
        sizes.append(protocols._sides.cache_info().entries)
    protocols._sides.cache_clear()
    monkeypatch.setattr("omxsim.constants.MAX_ARRAY_ENTRIES", sum(sizes) - 1)
    for argv in (a, b, a, c):
        run(argv)
    assert tuple(protocols._sides.cache_info())[:3] == (1, 3, 2)
    run(a)                                        # A is still kept
    assert tuple(protocols._sides.cache_info())[:3] == (2, 3, 2)
    run(b)                                        # B left and is built again
    assert tuple(protocols._sides.cache_info())[:3] == (2, 4, 2)
