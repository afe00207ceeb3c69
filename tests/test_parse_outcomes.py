"""Parse outcomes of the bundled corpus, pinned across commits.

Every bundled kernel, operator descriptor, test script and golden file is
parsed as written and under seeded token mutations: a token deleted or
replaced by an operator, a literal or a punctuation mark, the text cut
after it, or an operator inserted before it.  Each outcome is `ok` or
`<ExceptionType>: <message>`.  A kernel that parses adds its IR (params,
blocks, instructions with value ids, terminators and the region fields the
extractor reads), and a golden file that parses adds its serialised tree.
The sha256 of all outcomes must not change unless a commit means to change
what a parser accepts, builds or says.  To re-pin after such a change, run

    PYTHONPATH=src python tests/test_parse_outcomes.py

and put the digest it prints in DIGEST.
"""

import hashlib
import random
import re

from opfuzz.constraints import parse_tree, serialize_tree
from opfuzz.corpus import default_corpus_root, parse_test_script
from opfuzz.kernel.ir import IfRegion, RequireRegion
from opfuzz.kernel.parser import parse_kernel
from opfuzz.registry import parse_opspecs

DIGEST = "40eac99d63f09b839471ccffc60baa555557cbe92ae5517eb87864d8b38f98b0"

MUTANTS_PER_FILE = 60

_TOKEN = re.compile(r'"[^"\n]*"|\d+(?:\.\d+)?|\w+|\.\.|[=!<>]=|\S')
_OPERATORS = ("+", "-", "*", "/", "%", "==", "!=", "<", ">=", "and", "or", "not")
_LITERALS = ("0", "1", "7", "2.5", '"s"', "true", "x", "i")
_PUNCT = ("(", ")", "{", "}", "[", "]", ",", ";", ":", "..", "=")


def _regions(regions) -> list:
    out = []
    for r in regions:
        if isinstance(r, RequireRegion):
            out.append(("require", r.cond_id, r.block, r.message))
        elif isinstance(r, IfRegion):
            out.append(("if", r.guard_id, r.block, _regions(r.then_regions), _regions(r.else_regions)))
        else:
            out.append(("for", r.var_id, r.lo_id, r.hi_id, _regions(r.body_regions)))
    return out


def _kernel(text: str) -> str:
    k = parse_kernel(text)
    lines = [k.kernel_id, repr(k.params), repr(k.outputs), repr(_regions(k.regions))]
    for b in k.blocks:
        lines.append(f"block {b.bid} {b.terminator!r}")
        lines += (f"  {i.opcode} {i.dst} {i.args!r} {sorted(i.meta.items())!r}" for i in b.instrs)
    return "\n".join(lines)


PARSERS = {
    "kernels/*.krn": _kernel,
    "ops/*.ops": lambda text: parse_opspecs(text) and "",
    "tests/*.test": lambda text: parse_test_script(text) and "",
    "golden/*.ctree": lambda text: serialize_tree(parse_tree(text)),
}


def mutants(text: str, rng: random.Random):
    spans = [m.span() for m in _TOKEN.finditer(text)]
    for _ in range(MUTANTS_PER_FILE if spans else 0):  # an empty golden file has no token to mutate
        start, end = rng.choice(spans)
        how = rng.randrange(6)
        if how == 0:
            yield text[:start] + text[end:]
        elif how < 4:
            yield text[:start] + rng.choice((_OPERATORS, _LITERALS, _PUNCT)[how - 1]) + text[end:]
        elif how == 4:
            yield text[:end]
        else:
            yield text[:start] + rng.choice(_OPERATORS) + " " + text[start:]


def outcome(parse, text: str) -> str:
    try:
        built = parse(text)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return f"ok\n{built}" if built else "ok"


def outcomes():
    """(source label, outcome) for every bundled file as written and for
    each of its mutants."""
    root = default_corpus_root()
    for pattern, parse in PARSERS.items():
        for path in sorted(root.glob(pattern)):
            label = f"{path.parent.name}/{path.name}"
            text = path.read_text()
            yield label, outcome(parse, text)
            for n, mutant in enumerate(mutants(text, random.Random(label))):
                yield f"{label}#{n}", outcome(parse, mutant)


def digest() -> str:
    h = hashlib.sha256()
    for label, result in outcomes():
        h.update(f"{label}: {result}\n".encode("utf-8"))
    return h.hexdigest()


def test_parse_outcomes_are_pinned():
    assert digest() == DIGEST


def test_every_kind_of_outcome_is_reached():
    results = [r for _, r in outcomes()]
    assert sum(r.startswith("ok") for r in results) > 100
    kinds = {r.split(":")[0] for r in results if not r.startswith("ok")}
    assert {"KernelParseError", "DescriptorError", "CorpusError", "ConstraintError"} <= kinds


if __name__ == "__main__":
    print(digest())
