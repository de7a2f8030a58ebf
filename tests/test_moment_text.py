"""Moment documents as text: ``MomentSequence.to_text`` writes the bytes of
``json.dumps(to_document(), sort_keys=True, allow_nan=False)``, and
``MomentSequence.from_text`` reads any text as ``from_document(json.loads)``
does, to the same bits or the same error."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from test_fuzz_cli import BASES, mutate

from momint.moments import MomentSequence

#: values whose text ``repr`` writes in each of its forms: signed zero,
#: subnormals, the largest magnitudes, integral floats, and both sides of the
#: switches to exponent notation at 1e16 and 1e-5
SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
           1.0, -3.0, 12345678.0, 1e15, 9999999999999998.0, 1e16, -1e16, 1.0000000000000002e16,
           1e17, 0.0001, 1e-5, -1e-05, 9.999999999999999e-06, 1.5e-5, 0.5, 1 / 3]


def canonical(seq: MomentSequence) -> str:
    return json.dumps(seq.to_document(), sort_keys=True, allow_nan=False)


def special_table(rng, dimension: int, max_degree: int) -> MomentSequence:
    """A table of SPECIAL and Gaussian values; the mass is 1, 0, -0.0 or
    negative, so that no rescaling changes the values."""
    y = [rng.choice(SPECIAL) if rng.random() < 0.6 else rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8)
         for _ in range(math.comb(max_degree + dimension, dimension))]
    y[0] = rng.choice([1.0, 0.0, -0.0, -2.5])
    return MomentSequence._from_dense(dimension, max_degree, y)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_to_text_is_the_keyed_dump_byte_for_byte(dimension):
    rng = random.Random(dimension)
    for max_degree in range(0, 17, 2):
        seq = special_table(rng, dimension, max_degree)
        assert seq.to_text() == canonical(seq)


def test_to_text_writes_every_special_value_as_json_does():
    values = [1.0] + SPECIAL + [0.25] * (len(SPECIAL) % 2)
    seq = MomentSequence._from_dense(1, len(values) - 1, values)
    text = seq.to_text()
    assert text == canonical(seq)
    for shown in ("-0.0", "5e-324", "1e+308", "1e+16", "9999999999999998.0", "1e-05", "0.0001"):
        assert f'"value": {shown}}}' in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_to_text_refuses_a_non_finite_value_as_json_does(bad):
    seq = MomentSequence._from_dense(1, 2, [1.0, 0.5, 0.25])
    seq.y = np.array([1.0, bad, 0.25])
    with pytest.raises(ValueError) as want:
        canonical(seq)
    with pytest.raises(ValueError) as got:
        seq.to_text()
    assert str(got.value) == str(want.value)


def outcome(read, text: str):
    """``("ok", dimension, max_degree, normalized, scale, y bytes)``, or the
    type and message of the exception that ``read(text)`` raises."""
    try:
        seq = read(text)
    except Exception as exc:  # the outcome compared, whatever it is
        return type(exc), str(exc)
    return "ok", seq.dimension, seq.max_degree, seq.normalized, repr(seq.scale), seq.y.tobytes()


def assert_same_reading(text: str):
    want = outcome(lambda t: MomentSequence.from_document(json.loads(t)), text)
    assert outcome(MomentSequence.from_text, text) == want, text[:200]
    return want


def test_the_writers_bytes_are_read_without_json(monkeypatch):
    seq = special_table(random.Random(7), 3, 8)
    text = seq.to_text()

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on the writer's bytes")

    monkeypatch.setattr(json, "loads", refuse)
    for variant in (text, text + "\n"):
        back = MomentSequence.from_text(variant)
        assert (back.dimension, back.max_degree) == (3, 8)
        assert back.y.tobytes() == seq.y.tobytes()


def _moment_bases() -> list:
    """The moment documents of the fuzz base runs."""
    return [(name, files["moments"]) for name, files, _ in BASES if "moments" in files
            and "dimension" in files["moments"]]


def test_reader_agrees_with_json_on_the_fuzz_mutations():
    for name, doc in _moment_bases():
        canonical_doc = json.loads(json.dumps(doc, sort_keys=True))
        rng = random.Random(f"text:{name}")
        for _ in range(105):
            mutated, _ = mutate(canonical_doc, rng)
            for text in (json.dumps(mutated, sort_keys=True), json.dumps(mutated)):
                assert_same_reading(text)
                assert_same_reading(text + "\n")


def test_reader_agrees_with_json_on_character_edits():
    seq = special_table(random.Random(11), 2, 6)
    text = seq.to_text() + "\n"
    rng = random.Random(13)
    alphabet = '0123456789.-+eE,:[]{} "\n\r\tx}'
    taken = 0
    for _ in range(3000):
        at = rng.randrange(len(text))
        edit = rng.choice(["delete", "insert", "replace", "duplicate"])
        if edit == "delete":
            variant = text[:at] + text[at + 1:]
        elif edit == "insert":
            variant = text[:at] + rng.choice(alphabet) + text[at:]
        elif edit == "replace":
            variant = text[:at] + rng.choice(alphabet) + text[at + 1:]
        else:
            span = rng.randrange(1, 40)
            variant = text[:at] + text[at:at + span] + text[at:]
        taken += assert_same_reading(variant)[0] == "ok"
    assert taken  # some edits (a digit of a value, say) still parse


def _entry(text: str, index: list) -> str:
    """The text of the entry of ``index`` in a document written by ``to_text``."""
    start = text.index('{"index": ' + json.dumps(index) + ",")
    return text[start:text.index("}", start) + 1]


def _value_replaced(text: str, index: list, value: str) -> str:
    entry = _entry(text, index)
    return text.replace(entry, entry[:entry.index('"value": ') + 9] + value + "}")


@pytest.fixture(scope="module")
def written() -> str:
    return special_table(random.Random(5), 2, 4).to_text()


HAND_CASES = {
    "crlf": lambda t: t + "\r\n",
    "crlf inside": lambda t: t.replace(", ", ",\r\n", 3),
    "no trailing newline": lambda t: t,
    "two trailing newlines": lambda t: t + "\n\n",
    "leading space": lambda t: " " + t,
    "extra space in the head": lambda t: t.replace('"dimension": ', '"dimension":  '),
    "extra space in an entry": lambda t: t.replace('"value": ', '"value":  ', 1),
    "no spaces": lambda t: t.replace(", ", ",").replace(": ", ":"),
    "reordered head keys": lambda t: t.replace('"dimension": 2, "max_degree": 4',
                                               '"max_degree": 4, "dimension": 2'),
    "reordered entry keys": lambda t: t.replace(
        _entry(t, [1, 0]), '{"value": 0.5, "index": [1, 0]}'),
    **{f"value {value}": (lambda value: lambda t: _value_replaced(t, [1, 1], value))(value)
       for value in ("1", "1.", "+1.0", "01.5", "NaN", "-Infinity", "Infinity", "1e999",
                     ".5", "1_0.0", " 1.0", "1.0 ", "1E+2", "-0.0", "0e0", "true", "null",
                     '"1.0"')},
    "deleted value": lambda t: t.replace(_entry(t, [2, 0]), '{"index": [2, 0]}'),
    "deleted entry": lambda t: t.replace(_entry(t, [2, 0]) + ", ", ""),
    "duplicated entry": lambda t: t.replace(_entry(t, [2, 0]),
                                            _entry(t, [2, 0]) + ", " + _entry(t, [2, 0])),
    "swapped entries": lambda t: t.replace(_entry(t, [2, 0]), "@").replace(
        _entry(t, [1, 1]), _entry(t, [2, 0])).replace("@", _entry(t, [1, 1])),
    "entry text in place of a separator": lambda t: t.replace(
        ', "value": ', '}, ', 1),
    "bom": lambda t: "\ufeff" + t,
    "dimension and degree 9999": lambda t: t.replace(
        '"dimension": 2, "max_degree": 4', '"dimension": 9999, "max_degree": 9999'),
    "dimension 9999": lambda t: t.replace('"dimension": 2', '"dimension": 9999'),
    "degree 9999": lambda t: t.replace('"max_degree": 4', '"max_degree": 9999'),
    "dimension 99999999 at degree 0": lambda t: (
        '{"dimension": 99999999, "max_degree": 0, "moments": [{"index": [0], "value": 1.0}]}'),
    "a complete table of odd degree": lambda t: json.dumps({
        "dimension": 1, "max_degree": 3,
        "moments": [{"index": [k], "value": 1.0 / (k + 1)} for k in range(4)]}, sort_keys=True),
    "odd degree": lambda t: t.replace('"max_degree": 4', '"max_degree": 3'),
    "leading zero degree": lambda t: t.replace('"max_degree": 4', '"max_degree": 04'),
    "degree 4.0": lambda t: t.replace('"max_degree": 4', '"max_degree": 4.0'),
    "dimension 0": lambda t: t.replace('"dimension": 2', '"dimension": 0'),
    "a 5000-digit degree": lambda t: t.replace('"max_degree": 4', '"max_degree": 1' + "0" * 5000),
    "trailing entry separator": lambda t: t[:-2] + ", }]}",
    "extra key": lambda t: t[:-1] + ', "note": 1}',
    "truncated": lambda t: t[:-3],
    "empty": lambda t: "",
}


@pytest.mark.parametrize("case", list(HAND_CASES))
def test_reader_agrees_with_json_on_hand_cases(case, written):
    assert_same_reading(HAND_CASES[case](written))


# -- entries in any order: the permutation route --------------------------------


def _reordered(seq: MomentSequence, order) -> str:
    """``seq.to_text()`` with its entries listed in ``order``, given as
    positions of the writer's enumeration."""
    doc = seq.to_document()
    return json.dumps({**doc, "moments": [doc["moments"][i] for i in order]}, sort_keys=True)


def _orders(rng, n: int) -> dict:
    """The entry orders of the permutation tests for a table of n entries:
    reversed, seeded shuffles, and one entry repeated in place of another."""
    orders = {"reversed": list(range(n))[::-1]}
    for k in range(3):
        orders[f"shuffle {k}"] = rng.sample(range(n), n)
    if n > 1:
        twice, lost = rng.sample(range(n), 2)
        shuffled = rng.sample(range(n), n)
        orders["duplicated entry"] = [twice if i == lost else i for i in shuffled]
    return orders


def _unknown_entries(text: str, rng) -> dict:
    """``text`` with one entry's index text unknown to the reader: one
    exponent more, one less, or spaced otherwise than ``json.dumps``."""
    starts = [m.start() for m in re.finditer(r'"index": \[', text)]
    start = rng.choice(starts) + len('"index": [')
    end = text.index("]", start)
    index = text[start:end]
    variants = {"one exponent more": index + ", 0", "no space": index.replace(", ", ","),
                "padded": " " + index + " "}
    if ", " in index:
        variants["one exponent less"] = index[:index.rindex(", ")]
    return {name: text[:start] + spelled + text[end:] for name, spelled in variants.items()}


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_reader_agrees_with_json_on_entries_in_any_order(dimension):
    rng = random.Random(f"order:{dimension}")
    for max_degree in range(0, 17, 2):
        seq = special_table(rng, dimension, max_degree)
        n = len(seq.y)
        for name, order in _orders(rng, n).items():
            text = _reordered(seq, order)
            want = assert_same_reading(text)
            assert assert_same_reading(text + "\n") == want
            if len(set(order)) == n:
                assert want[0] == "ok" and want[-1] == seq.y.tobytes(), (name, max_degree)
            else:
                assert want[0] is ValueError and "listed more than once" in want[1]
        shuffled = _reordered(seq, rng.sample(range(n), n))
        for text in _unknown_entries(shuffled, rng).values():
            assert_same_reading(text)


def test_entries_in_any_order_are_read_without_json(monkeypatch):
    seq = special_table(random.Random(17), 3, 8)
    n = len(seq.y)
    texts = [_reordered(seq, order) for name, order in _orders(random.Random(19), n).items()
             if name != "duplicated entry"]

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a table in the writer's layout")

    monkeypatch.setattr(json, "loads", refuse)
    for text in texts:
        assert MomentSequence.from_text(text).y.tobytes() == seq.y.tobytes()


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, read as a library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_the_benchmarks_signed_tables_are_read_without_json(workloads, monkeypatch):
    # laid out as the benchmark writes its signed tables, in the order of
    # ``itertools.product`` rather than the graded-lex enumeration
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.0, 1.0, (4, 3))
    weights = np.append(rng.uniform(0.5, 1.5, 3), -0.3)
    text = json.dumps(workloads.moment_document(points, weights))
    want = MomentSequence.from_document(json.loads(text))
    assert [m["index"] for m in json.loads(text)["moments"]] != \
        [m["index"] for m in want.to_document()["moments"]]

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a signed benchmark table")

    monkeypatch.setattr(json, "loads", refuse)
    got = MomentSequence.from_text(text)
    assert (got.dimension, got.max_degree, got.scale) == (want.dimension, want.max_degree,
                                                          want.scale)
    assert got.y.tobytes() == want.y.tobytes()
