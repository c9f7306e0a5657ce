"""Property tests of the CLI contract over malformed input.

Whatever the datum or link JSON and whatever the argument tokens, ``cli.main``
(run in-process) ends with exit code 0, 1 or 2, writes at most one line to
stderr, and raises nothing: an exception escaping ``main`` would be a
traceback.  Values that would make a well-formed run large (inertia degrees,
precision, trial counts) are kept small, so every example runs quickly.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gostrata import cli
from gostrata.links import MorphismKind

# JSON scalars, with no decimal digit in any string, so that no string parses
# as a large integer; floats stay small except for the non-finite ones
SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-2, 4.5),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=3),
)
VALUE = st.recursive(
    SCALAR,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
PRIME_ID = st.sampled_from(["p1", "p2", "p3"]) | SCALAR


def _shaped(required: dict, optional: dict):
    """A dict with some keys, each value well-typed or not."""
    return st.fixed_dictionaries(required, optional=optional) | VALUE


DATUM = _shaped(
    {
        "primes": st.lists(
            _shaped(
                {"id": PRIME_ID},
                {"f": st.integers(-1, 4) | SCALAR, "e_split": st.booleans() | VALUE},
            ),
            max_size=2,
        )
        | VALUE
    },
    {
        "S": _shaped(
            {},
            {
                "infty": st.lists(st.lists(PRIME_ID | st.integers(-1, 4), max_size=3), max_size=4) | VALUE,
                "p": st.lists(PRIME_ID, max_size=2) | VALUE,
                "n_other": st.integers(-1, 2) | SCALAR,
            },
        ),
        "level": st.dictionaries(
            PRIME_ID.filter(lambda key: isinstance(key, str)),
            st.sampled_from(["hyperspecial", "iwahori", "maximal_order"]) | SCALAR,
            max_size=2,
        )
        | VALUE,
    },
)
NODES = st.lists(st.integers(-1, 6) | SCALAR, max_size=4) | VALUE
LINK = _shaped(
    {"n": st.integers(-1, 6) | SCALAR},
    {
        "source_nodes": NODES,
        "target_nodes": NODES,
        "disp": st.dictionaries(
            st.sampled_from(["0", "1", "2", "5", "-1", "x", ""]),
            st.integers(-12, 12) | SCALAR,
            max_size=4,
        )
        | VALUE,
    },
)


def _content(shape):
    """File bytes: JSON of ``shape`` (non-finite floats included), or junk."""
    return shape.map(lambda data: json.dumps(data).encode()) | st.binary(max_size=12)


BAD_INT = st.sampled_from(
    ["", "x", "1.5", "1e3", "0x10", " ", "--", "3,", "nan", "-", "+2", " 7 ", "1_0", "-1", "0", "1", "4"]
) | st.text(alphabet="abx-_., :/", max_size=5)
INT = st.integers(-3, 12).map(str) | BAD_INT
WEIGHTS = st.lists(
    st.sampled_from(["1", "-2", "1/2", "0", "x", "1/0", "", " 3 ", "2.5", "7/3"]), min_size=1, max_size=5
).map(",".join) | st.text(alphabet="0123456789/-,. x", max_size=8)
PLACES = st.lists(
    st.sampled_from(["0", "1", "2", "3", "p1:1", "p2:0", "p3:1", "x", "p1:", "-1", "9", ":", "p1:x"]),
    max_size=3,
).map(",".join) | st.text(alphabet="p0123:,x- ", max_size=6)
FORMAT = st.sampled_from(["json", "csv", "ascii", "xml"])


def _datum_argv(datum: str):
    kinds = st.sampled_from([kind.value for kind in MorphismKind] + ["Bogus"])
    return st.one_of(
        st.tuples(st.just("strata"), st.just("--datum"), st.just(datum), st.just("--T"), PLACES),
        st.tuples(st.just("strata-table"), st.just("--datum"), st.just(datum), st.just("--format"), FORMAT),
        st.tuples(
            st.just("ample"), st.just("--datum"), st.just(datum), st.just("--p"), INT,
            st.just("--t"), WEIGHTS, st.just("--format"), FORMAT,
        ),
        st.tuples(st.just("picard"), st.just("--datum"), st.just(datum), st.just("--p"), INT)
        .flatmap(
            lambda head: st.one_of(
                st.just(head + ("--matrix",)),
                st.tuples(st.sampled_from(["--class", "--fiber-degree"]), PLACES).map(lambda tail: head + tail),
            )
        ),
        st.tuples(
            st.just("link"), st.just("--frobenius"), st.just("--datum"), st.just(datum),
            st.just("--k"), INT, st.sampled_from(["--render", "--prime=p1", "--prime=p9"]),
        ),
        st.tuples(
            st.just("link"), st.just("--standard"), kinds, st.just("--datum"), st.just(datum),
            st.just("--tau"), PLACES, st.just("--p"), INT, st.just("--sheet"), INT,
        ),
    )


def _link_argv(first: str, second: str):
    return st.sampled_from(
        [
            ("link", "--validate", first),
            ("link", "--invert", first),
            ("link", "--compose", first, second),
            ("link", "--compose", first, first),
        ]
    )


# precision, degree and trial tokens: small valid values or malformed ones
DIEUDONNE_ARGV = st.tuples(
    st.just("dieudonne"),
    st.sampled_from(["--classify", "--twist", "--roundtrip"]),
    st.just("--seed"),
    st.sampled_from(["1", "x", ""]),
    st.just("--p"),
    st.sampled_from(["2", "3", "5"]) | BAD_INT,
    st.just("--f"),
    st.sampled_from(["1", "2", "3"]) | BAD_INT,
    st.just("--N"),
    st.sampled_from(["2", "4", "6", "8"]) | BAD_INT,
    st.just("--trials"),
    st.sampled_from(["0", "1"]) | BAD_INT,
    st.sampled_from(["--split", "--inert", "--f=2"]),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_contract(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: a usage error, or --help
            code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code, message)
    assert len(message.splitlines()) <= 1, (argv, message)
    assert "Traceback" not in message


@settings(max_examples=120, deadline=None)
@given(data=st.data(), content=_content(DATUM))
def test_cli_contract_on_malformed_datums(work, data, content: bytes) -> None:
    path = work / "datum.json"
    path.write_bytes(content)
    _assert_contract(data.draw(_datum_argv(str(path))))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), first=_content(LINK), second=_content(LINK))
def test_cli_contract_on_malformed_links(work, data, first: bytes, second: bytes) -> None:
    paths = work / "first.json", work / "second.json"
    paths[0].write_bytes(first)
    paths[1].write_bytes(second)
    _assert_contract(data.draw(_link_argv(str(paths[0]), str(paths[1]))))


@settings(max_examples=30, deadline=None)
@given(argv=DIEUDONNE_ARGV)
def test_cli_contract_on_bad_dieudonne_tokens(argv) -> None:
    _assert_contract(argv)
