"""Instance parsing, emission, generation, and the bundled benchmark set."""
import numpy as np
import pytest

from jobshopls import (best_known, builtin_instance, builtin_names, emit_taillard,
                       generate_instance, parse_taillard)
from jobshopls.taillard import InstanceParseError, resolve_instance


def test_builtin_set_is_complete():
    names = builtin_names()
    assert len(names) == 80
    assert names[0] == "ta01" and names[-1] == "ta80"


def test_parse_emit_round_trip_preserves_data():
    inst = builtin_instance("ta01")
    again = parse_taillard(emit_taillard(inst), name="ta01")
    assert inst == again
    assert np.array_equal(inst.proc, again.proc)
    assert np.array_equal(inst.machine, again.machine)


def test_known_instance_dimensions_and_content():
    inst = builtin_instance("ta01")
    assert (inst.n_jobs, inst.n_machines) == (15, 15)
    inst = builtin_instance("ta71")
    assert (inst.n_jobs, inst.n_machines) == (100, 20)


def test_best_known_values():
    bks = best_known()
    assert bks["ta01"] == 1231
    assert bks["ta10"] == 1241
    assert len(bks) >= 80
    # parsed once and shared, so read-only
    assert best_known() is bks
    with pytest.raises(TypeError):
        bks["ta01"] = 0


def test_generate_is_deterministic_and_bounded():
    a = generate_instance(6, 6, seed=7)
    b = generate_instance(6, 6, seed=7)
    assert a == b
    assert np.array_equal(a.proc, b.proc)
    assert a.proc.min() >= 1 and a.proc.max() <= 99
    assert generate_instance(6, 6, seed=8) != a


def test_generated_durations_cover_the_published_range():
    # U{1..99}: over many draws the sample mean sits near 50
    procs = np.concatenate([generate_instance(10, 10, seed=s).proc.reshape(-1)
                            for s in range(30)])
    assert 47.0 < procs.mean() < 53.0
    assert procs.min() == 1 and procs.max() == 99


def test_routes_are_machine_permutations():
    inst = generate_instance(5, 4, seed=3)
    for j in range(5):
        assert sorted(inst.machine[j]) == list(range(4))


def test_truncated_text_reports_the_offending_row():
    text = emit_taillard(generate_instance(3, 3, seed=1))
    lines = text.strip().splitlines()
    broken = "\n".join(lines[:3])  # durations cut short
    with pytest.raises(InstanceParseError) as err:
        parse_taillard(broken)
    assert "row" in str(err.value) or "line" in str(err.value)


def test_non_numeric_token_rejected():
    text = emit_taillard(generate_instance(2, 2, seed=1)).replace("1", "x", 1)
    with pytest.raises(InstanceParseError):
        parse_taillard(text)


@pytest.mark.parametrize("text, message", [
    ("# two jobs\n2 3\n1 2 3\n4 5\n",
     "unexpected end of file while reading processing-time row 2, column 3"),
    ("2 2\n1 2\n3 4\n1 2\n", "unexpected end of file while reading machine row 2, column 1"),
    ("# nothing\n\n", "unexpected end of file while reading job count"),
    ("2", "unexpected end of file while reading machine count"),
    ("two 2\n", "line 1: expected integer for job count, got 'two'"),
    ("2 2\n1 2\n3 x4\n1 2\n2 1\n",
     "line 3: expected integer for processing-time row 2, column 2, got 'x4'"),
    ("2 2\n1 2\n3 4\n1 2\n2 1.0\n",
     "line 5: expected integer for machine row 2, column 2, got '1.0'"),
    ("2 2\n1 2\n3 4\n1 2\n2 3\n", "machine row 2: index 3 outside 1..2"),
    # an index out of range is reported before a later bad or missing token
    ("2 2\n1 2\n3 4\n0 2\n2 x\n", "machine row 1: index 0 outside 1..2"),
    ("2 2\n1 2\n3 4\n1 5\n", "machine row 1: index 5 outside 1..2"),
    ("2 2\n1 2\n3 4\n1 2\n2 1\n\n# more\n 7 8\n", "line 8: trailing data '7'"),
    ("0 3\n", "job and machine counts must be positive, got 0 x 3"),
    ("2 -1\n1 2\n", "job and machine counts must be positive, got 2 x -1"),
    ("1 2\n-1 2\n1 2\n", "processing times must be non-negative"),
    ("2 2\n1 2\n3 4\n1 2\n2 2\n", "job 1 route is not a permutation of all machines"),
])
def test_parse_errors_name_the_offending_token(text, message):
    with pytest.raises(InstanceParseError) as err:
        parse_taillard(text)
    assert str(err.value) == message


def test_resolve_instance_accepts_names_and_paths(tmp_path):
    assert resolve_instance("ta05").name == "ta05"
    # a bundled instance is parsed once and shared; a file is read each time
    assert resolve_instance("ta05") is resolve_instance("ta05") is builtin_instance("ta05")
    p = tmp_path / "mine.txt"
    p.write_text(emit_taillard(generate_instance(4, 4, seed=2)))
    inst = resolve_instance(str(p))
    assert (inst.n_jobs, inst.n_machines) == (4, 4)
    p.write_text(emit_taillard(generate_instance(4, 4, seed=3)))
    again = resolve_instance(str(p))
    assert again == generate_instance(4, 4, seed=3) and again != inst
    with pytest.raises((FileNotFoundError, InstanceParseError, KeyError, ValueError)):
        resolve_instance("ta99")


def test_equality_ignores_name():
    a = generate_instance(3, 3, seed=4, name="left")
    b = generate_instance(3, 3, seed=4, name="right")
    assert a == b
