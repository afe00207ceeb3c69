"""The regex scanner against the hand-written lexers it replaced.

Kernel, descriptor and script tokens from `scan`, mapped back to lines and
columns with `line_col`, must equal the old lexers' tokens; constraint text
must parse to the same tree. Where the old lexer failed, the new one fails
with the same error type and message. The differences allowed are the ones
the old lexers got wrong:

1. a bare `ValueError` (an unterminated string in constraint text or a test
   script, a malformed number) is now the grammar's own error;
2. the end token's column after a trailing comment with no newline, which
   the kernel and descriptor lexers never advanced over;
3. test-script lines after a string literal holding a newline, which the
   script lexer did not count;
4. the end token's value is "" in every grammar, so a constraint or script
   message that prints it says '' where it said None;
6. a negative number where constraint text needs a parameter name, as in
   `ndim(-1)`, is named by its sign: the old lexer had already folded the
   sign into the number, the parser now folds it.

(5, non-ASCII letters and digits, lies outside the printable-ASCII inputs.)
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfuzz.constraints import ConstraintError, parse_constraint
from opfuzz.corpus import CorpusError, _CONVERT as SCRIPT_CONVERT, _TOKENS as SCRIPT_TOKENS, _script_error
from opfuzz.corpus import default_corpus_root
from opfuzz.kernel.parser import KernelParseError, line_col, scan, tokenize
from opfuzz.registry import _CONVERT as OPS_CONVERT, _TOKENS as OPS_TOKENS, DescriptorError

from _oracles import (
    ref_descriptor_tokenize,
    ref_kernel_tokenize,
    ref_parse_constraint,
    ref_script_tokenize,
)


def _end_value_printed(message):
    """The message with the old end token's None printed as '' (difference 4)."""
    return re.sub(r"(?<!')\bNone\b(?!')", "''", message)


def _outcome(fn, text):
    try:
        return fn(text), None
    except (ValueError, KernelParseError, DescriptorError, CorpusError, ConstraintError) as e:
        return None, e


def _same_failure(old, new, error, same_message=lambda a, b: a == b):
    assert type(new) is error, (old, new)
    if type(old) is ValueError:  # difference 1
        return
    assert type(old) is error and same_message(str(old), str(new)), (old, new)


def _check_positioned(text, old_lexer, new_lexer, error):
    """Kernel and descriptor tokens: (kind, value, line, col)."""
    old, old_err = _outcome(old_lexer, text)
    new, new_err = _outcome(new_lexer, text)
    if old_err or new_err:
        _same_failure(old_err, new_err, error)
        return
    new = [(k, v, *line_col(text, at)) for k, v, at in new]
    *body, (_, _, end_line, end_col) = old
    assert new[:-1] == body
    assert new[-1][:3] == ("eof", "", end_line)  # difference 4
    if new[-1][3] != end_col:  # difference 2: the old column stopped at the '#'
        assert text.rsplit("\n", 1)[-1][end_col - 1] == "#"


def check_kernel(text):
    _check_positioned(text, ref_kernel_tokenize, tokenize, KernelParseError)


def _descriptor_tokens(text):
    return scan(text, OPS_TOKENS, OPS_CONVERT, DescriptorError)


def check_descriptor(text):
    _check_positioned(text, ref_descriptor_tokenize, _descriptor_tokens, DescriptorError)


def _script_lines_shifted(text, a, b):
    """Same message up to a line number the old lexer undercounted by the
    newlines inside string literals (difference 3)."""
    (la, ra), (lb, rb) = (re.fullmatch(r"test script line (\d+): (.*)", m, re.S).groups() for m in (a, b))
    spanning = re.search(r'"[^"]*\n[^"]*"', text)
    return _end_value_printed(ra) == rb and (la == lb or (spanning and int(lb) > int(la)))


def check_script(text):
    old, old_err = _outcome(ref_script_tokenize, text)
    new, new_err = _outcome(lambda t: scan(t, SCRIPT_TOKENS, SCRIPT_CONVERT, _script_error), text)
    if old_err or new_err:
        _same_failure(old_err, new_err, CorpusError, lambda a, b: _script_lines_shifted(text, a, b))
        return
    assert len(new) == len(old)
    shift = 0
    for (k, v, line), (nk, nv, at) in zip(old, new):
        assert (nk, nv, line_col(text, at)[0]) == (k, "" if k == "eof" else v, line + shift)
        if k == "str":
            shift += v.count("\n")  # difference 3


def _constraint_messages_agree(a, b):
    if re.fullmatch(r"expected 'ident', got -\d[\d.]*", a):  # difference 6
        return b == "expected 'ident', got '-'"
    return _end_value_printed(a) == b


def check_constraint(text):
    old, old_err = _outcome(ref_parse_constraint, text)
    new, new_err = _outcome(parse_constraint, text)
    if old_err or new_err:
        _same_failure(old_err, new_err, ConstraintError, _constraint_messages_agree)
        return
    assert repr(new) == repr(old)


_CHARS = st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\t\n\r\x0b\x0c")
_SHARED = (" ", "  ", "\n", "\t", "\r", "#", "# c\n", '"', '""', '"s"', '"a b"')
_SHARED += ("1", "0", "42", "2.5", "1.", ".", "x", "_y1", "~", "-")


def _texts(words):
    """Printable ASCII, and runs of the grammar's own lexemes and near misses."""
    runs = st.lists(st.sampled_from(_SHARED + words), max_size=25).map("".join)
    return st.text(_CHARS, max_size=40) | runs


KERNEL_WORDS = ("kernel", "{", "}", "(", ")", "[", "]", "<", ">", "==", "!=", "<=", ">=", "=", "!", "..")
KERNEL_WORDS += (",", ";", ":", "+", "*", "/", "%", "3.25", "1..2", '"a\nb"')
OPS_WORDS = ("op", "name", "{", "}", ":", "DT_INT64", '"a\nb"', "=")
SCRIPT_WORDS = ("test", "seq", "fixture", "0x", "0xAB", "0X1g", "00x5", "{", "}", ";", '"a\nb"', '"a\n\nb"')
CONSTRAINT_WORDS = ("ndim(", "val(", "dim(", "size(", "forall", " i ", "in", "[", "(", ")", ",", ":", "==", "!=")
CONSTRAINT_WORDS += ("<", ">=", "+", "*", "%", "-1", "-0.0", "1.2.3", "9223372036854775808", "true", '"a\nb"')


@settings(max_examples=400, deadline=None)
@given(_texts(KERNEL_WORDS))
def test_kernel_lexer_matches_the_hand_written_one(text):
    check_kernel(text)


@settings(max_examples=400, deadline=None)
@given(_texts(OPS_WORDS))
def test_descriptor_lexer_matches_the_hand_written_one(text):
    check_descriptor(text)


@settings(max_examples=400, deadline=None)
@given(_texts(SCRIPT_WORDS))
def test_script_lexer_matches_the_hand_written_one(text):
    check_script(text)


@settings(max_examples=400, deadline=None)
@given(_texts(CONSTRAINT_WORDS))
def test_constraint_parse_matches_the_hand_written_lexer(text):
    check_constraint(text)


@pytest.mark.parametrize(
    "suffix,check",
    [("kernels/*.krn", check_kernel), ("ops/*.ops", check_descriptor), ("tests/*.test", check_script)],
)
def test_bundled_sources_lex_as_before(suffix, check):
    files = sorted(default_corpus_root().glob(suffix))
    assert files
    for f in files:
        check(f.read_text())


def test_bundled_golden_constraints_parse_as_before():
    for f in sorted((default_corpus_root() / "golden").glob("*.ctree")):
        for line in f.read_text().splitlines():
            check_constraint(line.strip().removeprefix("branch:").strip())


@pytest.mark.parametrize(
    "check,text",
    [
        (check_kernel, "kernel K {} # end"),  # difference 2
        (check_descriptor, 'op { name: "A" } # end'),  # difference 2
        (check_script, 'test "a\nb" { seq A B; }\ntest "c" { dance; }'),  # difference 3
        (check_script, 'test "a'),  # difference 1
        (check_script, "test x { fixture file 0x"),  # difference 1
        (check_constraint, 'val(x) == "abc'),  # difference 1
        (check_constraint, "val(x) == 1.2.3"),  # difference 1
        (check_constraint, "val(x) =="),  # difference 4
        (check_constraint, "ndim(-1) == 0"),  # difference 6
        (check_constraint, "val(x) == - 0.0"),
        (check_constraint, "val(x) == -9223372036854775809"),
    ],
)
def test_declared_differences(check, text):
    check(text)
