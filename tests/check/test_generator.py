"""Generator: determinism, structural liveness rules, spec round-trip."""

from repro.check.generator import generate_spec
from repro.check.spec import ProgramSpec


def test_deterministic_per_seed():
    assert generate_spec(7).to_dict() == generate_spec(7).to_dict()
    assert generate_spec(7).to_dict() != generate_spec(8).to_dict()


def test_spec_round_trips_through_dict_and_json(tmp_path):
    spec = generate_spec(3)
    assert ProgramSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    path = spec.to_json(tmp_path / "spec.json")
    assert ProgramSpec.from_json(path).to_dict() == spec.to_dict()


def test_object_indices_in_range():
    for seed in range(40):
        spec = generate_spec(seed)
        for _, _, node in spec.iter_ops():
            kind = node["op"]
            if kind in ("lock", "trylock"):
                assert 0 <= node["m"] < spec.n_mutexes
            elif kind == "rw":
                assert 0 <= node["rw"] < spec.n_rwlocks
            elif kind == "sem":
                assert 0 <= node["s"] < spec.n_sems
            elif kind in ("produce", "consume"):
                assert 0 <= node["ch"] < spec.n_channels


def test_blocking_locks_are_ordered():
    # Rule 1: a nested blocking acquire only ever targets a strictly
    # larger mutex index than every enclosing hold.
    def walk(ops, held_max):
        for node in ops:
            if node["op"] == "lock":
                assert node["m"] > held_max
                walk(node["body"], node["m"])
            elif node["op"] == "spawn":
                walk(node["ops"], -1)  # children start lock-free

    for seed in range(40):
        for t in generate_spec(seed).threads:
            walk(t.ops, -1)


def test_consumes_backed_by_root_produces():
    # Rule 3: cumulatively, root-thread consumes never outnumber
    # root-thread produces on any channel (child produces don't count).
    def count(ops, kind, ch, in_child=False):
        n = 0
        for node in ops:
            if node["op"] == kind and not in_child and node.get("ch") == ch:
                n += 1
            elif node["op"] == "lock":
                n += count(node["body"], kind, ch, in_child)
            elif node["op"] == "spawn":
                n += count(node["ops"], kind, ch, True)
        return n

    for seed in range(40):
        spec = generate_spec(seed)
        for ch in range(spec.n_channels):
            produced = sum(count(t.ops, "produce", ch) for t in spec.threads)
            consumed = sum(count(t.ops, "consume", ch) for t in spec.threads)
            assert consumed <= produced


def test_barrier_columns_aligned():
    # Rule 4: every root thread arrives at the barrier exactly
    # barrier_rounds times, always at the top level; children never do.
    for seed in range(40):
        spec = generate_spec(seed)
        for t in spec.threads:
            top_level = sum(1 for n in t.ops if n["op"] == "barrier")
            assert top_level == spec.barrier_rounds
        for _, path, node in spec.iter_ops():
            if node["op"] == "barrier":
                assert len(path) == 1  # never nested in lock/spawn bodies


def test_corrupt_trace_is_seeded_and_well_formed():
    import numpy as np

    from repro.check.generator import corrupt_trace
    from repro.check.interp import run_spec

    trace = run_spec(generate_spec(4)).trace
    changed = 0
    for seed in range(50):
        a, b = corrupt_trace(trace, seed), corrupt_trace(trace, seed)
        assert np.array_equal(a.records, b.records)  # deterministic
        assert a.objects == trace.objects and a.threads == trace.threads
        # Only drops and field rewrites: every surviving seq is original,
        # in order, with its original timestamp.
        kept = np.searchsorted(trace.records["seq"], a.records["seq"])
        assert np.array_equal(trace.records["seq"][kept], a.records["seq"])
        assert np.array_equal(trace.records["time"][kept], a.records["time"])
        assert len(trace) - 4 <= len(a) <= len(trace)
        changed += not np.array_equal(a.records, trace.records)
    assert changed >= 45  # mutations rarely cancel out
    assert not np.array_equal(corrupt_trace(trace, 1).records, corrupt_trace(trace, 2).records)
