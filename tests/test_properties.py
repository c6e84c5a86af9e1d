"""Invariants of the reports, checked over generated thermal settings.

The report properties run through the dual-rail-sector herald: the fidelity
numerators contract only the sector rows, and the herald masses the full
Gram traces.  The readout property runs through the heralded post-state.
The weight properties hold bit for bit: a sweep and a report form their
thermal weights through the same product, so a sweep row equals the report
at its occupation, and overrides equal to the shared occupation change
nothing.  Generated circuits, declared in any order and with extra elements
on either side of the Bell analyzer, match the dense joint-registry oracle,
and each side's sparse batch matches the oracle's dense per-component
propagation element by element; compiling any text fails only with a
circuit error, and pretty-printing what parses changes nothing it compiles
to.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import dense_apply, dense_initial_vector, dense_report, side_start
from hypothesis import given, settings
from hypothesis import strategies as st
from test_factorized import assert_reports_equal

from omxsim import dsl, fock, plans, protocols
from omxsim.elements import ScatterModel
from omxsim.measurement import BellId
from omxsim.plans import (
    BellMeasure,
    CircuitPlan,
    ElementStep,
    MagnonDecl,
    ModeRef,
    PhotonDecl,
    PlanError,
    PlanSettings,
)
from omxsim.protocols import InputQubit, ProtocolError, ThermalConfig

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

TOL = 1e-12
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

thermal = st.builds(ThermalConfig,
                    n_bar=st.floats(0.0, 0.5),
                    cutoff=st.integers(1, 3),
                    renormalize=st.booleans())
models = st.sampled_from(list(ScatterModel))
qubits = st.builds(InputQubit.from_angles,
                   st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
# small occupations, and large ones up to the s -> 1 limit
occupations = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 1e17))


def _report(protocol: str, cfg: ThermalConfig, model: ScatterModel,
            qubit: InputQubit = protocols.DEFAULT_SWEEP_QUBIT, **kwargs):
    if protocol == "teleport":
        return protocols.teleport(qubit, cfg, model, **kwargs)
    return protocols.entanglement_swap(cfg, model, **kwargs)


@PROPERTY
@given(cfg=thermal, model=models, qubit=qubits)
def test_swap_fidelity_is_teleport_fidelity_squared(cfg, model, qubit):
    f_teleport = protocols.teleport(qubit, cfg, model).aggregate_fidelity
    f_swap = protocols.entanglement_swap(cfg, model).aggregate_fidelity
    assert f_swap == pytest.approx(f_teleport ** 2, abs=TOL)


@PROPERTY
@given(cfg=thermal, model=models, qubit=qubits)
def test_each_bell_herald_has_probability_one_quarter(cfg, model, qubit):
    for report in (protocols.teleport(qubit, cfg, model),
                   protocols.entanglement_swap(cfg, model)):
        for outcome in report.outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=TOL)
        assert report.no_herald_probability == pytest.approx(0.0, abs=TOL)


@PROPERTY
@given(cfg=thermal, model=models, qubits=st.lists(qubits, min_size=2, max_size=2))
def test_teleport_aggregate_fidelity_does_not_depend_on_the_input_qubit(cfg, model,
                                                                         qubits):
    first, second = (protocols.teleport(q, cfg, model).aggregate_fidelity
                     for q in qubits)
    assert first == pytest.approx(second, abs=TOL)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_bar=st.floats(0.0, 0.5), cutoff=st.integers(1, 9), renormalize=st.booleans(),
       model=models, qubit=qubits)
def test_readout_retrieves_each_even_herald_with_its_corrected_fidelity(
        n_bar, cutoff, renormalize, model, qubit):
    report = protocols.teleport(qubit, ThermalConfig(n_bar, cutoff, renormalize), model)
    for bell_id, correct in ((BellId.PHI_PLUS, False), (BellId.PHI_MINUS, True)):
        outcome = report.outcome(bell_id)
        result = protocols.readout(outcome, apply_correction=correct)
        assert protocols.retrieved_qubit_fidelity(result, qubit) == pytest.approx(
            outcome.fidelity_corrected, abs=TOL)


@PROPERTY
@given(protocol=st.sampled_from(plans.PROTOCOLS), cutoff=st.integers(1, 3),
       renormalize=st.booleans(), model=models,
       grid=st.lists(occupations, min_size=1, max_size=4).map(sorted))
def test_each_sweep_row_equals_the_report_at_its_occupation(
        protocol, cutoff, renormalize, model, grid):
    cfg = ThermalConfig(0.0, cutoff, renormalize)
    try:
        rows = protocols.sweep_fidelity(protocol, grid, cfg, model)
    except ProtocolError as exc:
        # a point of zero mass (no renormalization once s rounds to 1) is
        # refused by the sweep and by its report alike
        messages = []
        for g in grid:
            try:
                _report(protocol, ThermalConfig(g, cutoff, renormalize), model)
            except ProtocolError as report_exc:
                messages.append(str(report_exc))
        assert str(exc) in messages
        return
    for row in rows:
        report = _report(protocol, ThermalConfig(row.n_bar, cutoff, renormalize), model)
        assert row.simulated == report.aggregate_fidelity
        assert row.abs_diff == report.closed_form["abs_diff"]


@PROPERTY
@given(protocol=st.sampled_from(plans.PROTOCOLS), n_bar=occupations,
       cutoff=st.integers(1, 3), renormalize=st.booleans(), model=models, qubit=qubits)
def test_overrides_equal_to_the_shared_occupation_change_nothing(
        protocol, n_bar, cutoff, renormalize, model, qubit):
    cfg = ThermalConfig(n_bar, cutoff, renormalize)
    overrides = dict.fromkeys("AB" if protocol == "teleport" else "ABCD", n_bar)
    try:
        shared = _report(protocol, cfg, model, qubit).to_dict()
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as overridden_exc:
            _report(protocol, cfg, model, qubit, n_bar_overrides=overrides)
        assert str(overridden_exc.value) == str(exc)
        return
    overridden = _report(protocol, cfg, model, qubit,
                         n_bar_overrides=overrides).to_dict()
    echoed = overridden["config"].pop("n_bar_overrides")
    assert echoed == dict.fromkeys(overrides, shared["config"]["n_bar"])
    assert overridden == shared


# ---------------------------------------------------------------------------
# generated circuits against the dense oracle

angles = st.floats(0.0, 2 * np.pi)


def _extra_steps(upper: str, lower: str):
    """Elements after one interferometer's polarizing splitter, on its modes.

    The scattering steps come first, so no extra element can push a photon
    or an excitation outside a Stokes element's domain.
    """
    photons = [ModeRef("photon", p, pol) for p in (upper, lower) for pol in "HV"]
    magnons = [ModeRef("magnon", "m" + p) for p in (upper, lower)]
    step = st.one_of(
        st.builds(lambda m, a: ElementStep("phase", (m, a)),
                  st.sampled_from(magnons + photons), angles),
        st.builds(lambda p, m, g: ElementStep("pdc", (p, m, g)),
                  st.sampled_from(photons), st.sampled_from(magnons), st.floats(0.1, 1.0)),
        st.permutations(magnons).map(lambda m: ElementStep("antistokes", tuple(m))),
        st.builds(lambda name, p, a: ElementStep(name, (p, a)),
                  st.sampled_from(("hwp", "qwp")), st.sampled_from((upper, lower)), angles),
        st.permutations(photons).map(lambda p: ElementStep("bs50", tuple(p[:2]))),
    )
    return st.lists(step, max_size=3)


def _interferometer(upper: str, lower: str) -> tuple[list, list[ElementStep]]:
    decls = [PhotonDecl(upper, "single_v"), PhotonDecl(lower),
             MagnonDecl("m" + upper, "thermal"), MagnonDecl("m" + lower, "thermal")]
    steps = [ElementStep("bs50", (ModeRef("photon", upper, "V"),
                                  ModeRef("photon", lower, "V")))]
    for p in (upper, lower):
        steps.append(ElementStep("stokes", (ModeRef("photon", p, "V"),
                                            ModeRef("photon", p, "H"),
                                            ModeRef("magnon", "m" + p))))
    steps += [ElementStep("hwp", (upper, np.pi / 4)), ElementStep("pbs", (upper, lower))]
    return decls, steps


def _magnon_steps(upper: str, lower: str):
    """A pdc, an antistokes and a phase on one interferometer's magnons, in
    any order.  The pdc's columns are dense in its local space (its matrix
    exponential leaves rounding dust off the occupation-difference blocks),
    so it multiplies a side's entries."""
    photons = [ModeRef("photon", p, pol) for p in (upper, lower) for pol in "HV"]
    magnons = [ModeRef("magnon", "m" + p) for p in (upper, lower)]
    pdc = st.builds(lambda p, m, g: ElementStep("pdc", (p, m, g)),
                    st.sampled_from(photons), st.sampled_from(magnons), st.floats(0.1, 1.0))
    antistokes = st.permutations(magnons).map(lambda m: ElementStep("antistokes", tuple(m)))
    phase = st.builds(lambda m, a: ElementStep("phase", (m, a)),
                      st.sampled_from(magnons), angles)
    return st.tuples(pdc, antistokes, phase).flatmap(lambda s: st.permutations(list(s)))


@st.composite
def circuits(draw, magnon_steps: bool = False) -> CircuitPlan:
    """A teleport or swap circuit; with `magnon_steps`, each interferometer
    also gets a pdc, an antistokes and a phase on its magnons."""
    protocol = draw(st.sampled_from(plans.PROTOCOLS))
    cutoff = draw(st.integers(1, 2))
    decls, side1 = _interferometer("A", "B")
    side1 += draw(_extra_steps("A", "B"))
    if magnon_steps:
        side1 += draw(_magnon_steps("A", "B"))
    if protocol == "teleport":
        decls.append(PhotonDecl("c", "qubit"))
        side2 = draw(st.lists(st.builds(lambda name, a: ElementStep(name, ("c", a)),
                                        st.sampled_from(("hwp", "qwp")), angles),
                              max_size=1))
        measure = BellMeasure("B", "c")
        qubit = draw(qubits)
    else:
        decls2, side2 = _interferometer("C", "D")
        decls += decls2
        side2 += draw(_extra_steps("C", "D"))
        if magnon_steps:
            side2 += draw(_magnon_steps("C", "D"))
        measure = BellMeasure("B", "D")
        qubit = InputQubit(1.0, 0.0)
    # untouched photons join side 1; at most one where it keeps the dense
    # oracle's joint registry within 2^17 dimensions
    extra = 1 if protocol == "teleport" or cutoff == 1 else 0
    decls += [PhotonDecl(f"E{k}", init) for k, init in enumerate(draw(st.lists(
        st.sampled_from(("vacuum", "single_h", "single_v")), max_size=extra)))]
    # any declaration order: interleaved magnons, the second side first
    decls = draw(st.permutations(decls))
    # the two sides' steps interleaved, each side's in its own order
    order = draw(st.permutations([0] * len(side1) + [1] * len(side2)))
    queues = [iter(side1), iter(side2)]
    steps = [next(queues[side]) for side in order]
    if protocol == "swap" and cutoff == 1 and draw(st.booleans()):
        # an element across the analyzer: the circuit runs as one side
        steps.append(ElementStep("bs50", (ModeRef("photon", "B", "V"),
                                          ModeRef("photon", "D", "V"))))
    magnons = [d.path for d in decls if isinstance(d, MagnonDecl)]
    overrides = draw(st.dictionaries(st.sampled_from(magnons), st.floats(0.0, 0.5),
                                     max_size=2))
    settings_ = PlanSettings(protocol, draw(st.floats(0.0, 0.5)), cutoff,
                             draw(st.booleans()), draw(models),
                             complex(qubit.alpha), complex(qubit.beta),
                             n_bar_overrides=tuple(sorted(overrides.items())),
                             include_odd_parity=draw(st.booleans()))
    return CircuitPlan(tuple(decls), tuple(steps), measure, settings_)


@PROPERTY
@given(plan=circuits())
def test_generated_circuits_match_the_dense_oracle(plan):
    assert_reports_equal(protocols.execute_plan(plan), dense_report(plan))


@PROPERTY
@given(plan=circuits(magnon_steps=True))
def test_each_sides_batch_matches_dense_propagation_element_by_element(plan):
    for side in plans.sides(plan):
        registry, components, batch, ops = side_start(plan, side)
        dense = [fock.StateVector(registry, dense_initial_vector(plan, registry, occ, side.decls),
                                  normalized=False) for occ in components]
        for op in ops:
            batch = fock.apply(op, batch)
            dense = [dense_apply(op, state) for state in dense]
            want = np.array([state.amplitudes for state in dense])
            got = np.zeros_like(want)
            got[batch.component, batch.index] = batch.amplitudes
            assert np.abs(got - want).max() < TOL
            # one entry per nonzero amplitude: pdc's dense columns multiply
            # the entries, and the count is what the dense states hold
            assert len(batch.amplitudes) == np.count_nonzero(want)


# ---------------------------------------------------------------------------
# compiling arbitrary text

SHIPPED = [line for name in ("teleport.omx", "swap.omx")
           for line in (CIRCUITS / name).read_text().splitlines()]
SWAP_LINES = (CIRCUITS / "swap.omx").read_text().splitlines()
TRICKY = ["set thermal_cutoff = 7", "set thermal_cutoff = 99999", "set photon_cutoff = 40",
          "set n_bar = inf", "set alpha = 2", "set beta = nan", "mode photon E",
          "mode magnon B", "apply bs50(B.V, D.V)", "apply antistokes(mA, mC)",
          "apply pdc(C.H, mB, 0.3)", "apply hwp(Z, 1)", "apply stokes(A.V, A.H, Q)",
          "measure bell(A, A)", "measure bell(B, mA)", "measure bell(B, c)"]
known_lines = st.sampled_from(SHIPPED + TRICKY)
source_lines = st.one_of(known_lines, st.text(max_size=16))
sources = st.one_of(
    st.lists(known_lines, max_size=30),
    st.lists(source_lines, max_size=30),
    # the shipped swap circuit with a few lines inserted
    st.builds(lambda extra, at: SWAP_LINES[:at] + extra + SWAP_LINES[at:],
              st.lists(source_lines, max_size=3), st.integers(0, len(SWAP_LINES))),
).map("\n".join)
# a qubit that PlanSettings refuses is a simulation error (exit 2), not a
# circuit error; a non-finite setting is refused by its `set` line
SETTINGS_REFUSAL = re.compile(r"deviates from 1")


@PROPERTY
@given(source=sources)
def test_compiling_any_text_raises_only_circuit_errors(source):
    try:
        plan = dsl.compile_source(source)
    except (dsl.ParseError, dsl.DslSemanticError):
        return
    except PlanError as exc:
        assert SETTINGS_REFUSAL.search(str(exc)), exc
        return
    # a compiled plan's sides hold every declaration and step once
    sides = plans.sides(plan)
    assert sorted(map(repr, sides[0].decls + sides[1].decls)) == sorted(map(repr, plan.decls))
    assert len(sides[0].elements) + len(sides[1].elements) == len(plan.steps)


@PROPERTY
@given(source=sources)
def test_pretty_printing_what_parses_compiles_to_the_same_plan(source):
    try:
        ast = dsl.parse(source)
    except dsl.ParseError:
        return
    printed = dsl.pretty_print(ast)
    reparsed = dsl.parse(printed)
    assert dsl.pretty_print(reparsed) == printed

    def compiled(tree):
        try:
            return dsl.compile(tree)
        except dsl.DslSemanticError as exc:
            # positions move with the dropped comments and blank lines
            return [issue.message for issue in exc.issues]
        except PlanError as exc:
            return str(exc)

    assert compiled(reparsed) == compiled(ast)
