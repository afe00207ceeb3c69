"""Parser and lowering for the micro-kernel language.

Source form:

    kernel NameKernel {
      input x : tensor<f32>;
      attr n : int;
      output y : tensor<f32>;
      require rank(x) == 1, "x must be a vector";
      if n > 1 { require size(x) % n == 0, "divisible"; }
      for i in 0..size(x) { require x[i] >= 0, "non-negative"; }
      t = x[0];
      emit y = x;
      call Push(Stack, h, x);
    }

`scan` is the one scanner and `Tokens` the one cursor of all four input
grammars: kernels here, operator descriptors (`registry`), test scripts
(`corpus`) and constraint text (`constraints`).  `Tokens.climb` is the one
precedence climber of both expression grammars, kernels and constraint
text, and `ARITH_LEVELS` their one arithmetic table, by which
`constraints.render` also parenthesises.

Lowering is mechanical: `require` becomes a conditional branch to a
require_fail block, `if` a diamond, `for` a counted loop whose latch
increments the counter slot in place.  Expressions are statically typed at
parse time (indexing a scalar or ordering strings is a parse error, not a
runtime surprise).
"""

from __future__ import annotations

import re

from .ir import (
    Block,
    DType,
    IfRegion,
    Instruction,
    KernelIR,
    LoopRegion,
    ParamDecl,
    RequireRegion,
)


class KernelParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TENSOR_ELEMS = {"i64": DType.DT_INT64, "f32": DType.DT_FLOAT, "str": DType.DT_STRING, "bool": DType.DT_BOOL}
ATTR_TYPES = {"int": DType.INT, "float": DType.FLOAT, "string": DType.STRING, "bool": DType.BOOL}
# the static type of a scalar value, by the element dtype it takes
_SCALAR_TYPES = {DType.DT_INT64: "int", DType.DT_FLOAT: "float", DType.DT_STRING: "str", DType.DT_BOOL: "bool"}

RESOURCE_VERBS = ("New", "Push", "Pop", "Close", "Find", "Remove")

# binary operator -> level, tighter operators higher; every level is left-associative
ARITH_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}
_LOGIC_LEVELS = {"or": 1, "and": 2}


_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"


def token_pattern(tokens: str, skip: str = _SKIP) -> re.Pattern:
    """A grammar's master pattern: `skip`, then one of its named token
    alternatives, a `bad` character or the end of the text.  The last two
    leave no gap between matches, so `finditer` never resumes inside a
    comment or past a character it could not read."""
    return re.compile(f"{skip}(?:{tokens}|(?P<bad>.)|(?P<eof>\\Z))", re.ASCII | re.DOTALL)


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a token offset, for error messages."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def scan(text: str, pattern: re.Pattern, convert: dict, error) -> list:
    """Tokens (kind, value, offset) of `text`, ending in ("eof", "", len).

    `convert` maps a kind to the function that turns its lexeme into a
    value; `error(message, line, col)` builds the grammar's exception for
    a stray character, an unterminated string or a malformed number.
    """
    tokens = []
    for m in pattern.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        offset = m.start(kind)
        if kind == "eof":
            tokens.append(("eof", "", offset))
            return tokens
        if kind == "bad":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            raise error(message, *line_col(text, offset))
        if kind in convert:
            try:
                value = convert[kind](value)
            except ValueError:
                raise error(f"malformed number {value!r}", *line_col(text, offset)) from None
        tokens.append((kind, value, offset))


class Tokens:
    """A cursor over `scan(text, pattern, convert, error)`.  `fail` raises
    `error` at a token's line and column; a missing token reads
    `expected <value or kind>, got <token>`.  Only `fail` reads a token's
    offset, so a subclass that overrides it may walk (kind, value) pairs."""

    def __init__(self, text: str, pattern: re.Pattern, convert: dict, error):
        self.text = text
        self.error = error
        self.toks = scan(text, pattern, convert, error)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, *values) -> bool:
        t = self.toks[self.pos]
        return t[0] == kind and (not values or t[1] in values)

    def expect(self, kind: str, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            self.fail(f"expected {value or kind!r}, got {t[1]!r}", t)
        return t[1]

    def fail(self, message: str, tok=None):
        tok = tok or self.peek()
        raise self.error(message, *line_col(self.text, tok[2]))

    def climb(self, kind: str, levels: dict, operand, combine, floor: int = 1):
        """Operands parsed by `operand()` between `kind` tokens whose value
        is an operator of `levels` ({operator: level}) at `floor` or above,
        folded left-associatively by `combine(tok, left, right)`.  The right
        side of an operator climbs from one level above its own, so an
        operand costs one call however many levels the table has."""
        left = operand()
        while True:
            tok = self.toks[self.pos]
            level = levels.get(tok[1], 0) if tok[0] == kind else 0
            if level < floor:
                return left
            self.pos += 1
            left = combine(tok, left, self.climb(kind, levels, operand, combine, level + 1))


_TOKENS = token_pattern(
    r'(?P<float>\d+\.\d+)|(?P<int>\d+)|(?P<str>"[^"\n]*")|(?P<ident>[A-Za-z_]\w*)'
    r"|(?P<punct>==|!=|<=|>=|\.\.|[{}()\[\]<>,;:=+\-*/%])"
)
_CONVERT = {"float": float, "int": int, "str": lambda s: s[1:-1]}


def tokenize(source: str) -> list:
    """Tokens (kind, value, offset); kind in {ident, int, float, str, punct, eof}."""
    return scan(source, _TOKENS, _CONVERT, KernelParseError)


class _Lowerer(Tokens):
    """Single-pass parse + lowering.  Expressions evaluate into fresh value
    ids appended to the current block; statements shape the CFG."""

    def __init__(self, source: str):
        super().__init__(source, _TOKENS, _CONVERT, KernelParseError)
        self.blocks: list[Block] = []
        self.cur: Block | None = None
        self.next_val = 0
        self.params: list[ParamDecl] = []
        self.outputs: list[tuple[str, DType]] = []
        # lexical scopes, name -> (value_id, type): the parameters, then locals
        self.scopes: list[dict[str, tuple[int, str]]] = [{}]

    # -- value/block plumbing --

    def new_val(self) -> int:
        v = self.next_val
        self.next_val += 1
        return v

    def new_block(self) -> Block:
        b = Block(bid=len(self.blocks))
        self.blocks.append(b)
        return b

    def append(self, opcode: str, dst, args, **meta) -> int | None:
        self.cur.instrs.append(Instruction(opcode, dst, tuple(args), dict(meta)))
        return dst

    def emit_const(self, value) -> int:
        dst = self.new_val()
        self.append("const", dst, (value,))
        return dst

    # -- name resolution --

    def lookup(self, name: str, tok) -> tuple[int, str]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        self.fail(f"use of undefined name {name!r}", tok)

    def define_local(self, name: str, vid: int, type_: str, tok):
        for scope in self.scopes:
            if name in scope:
                if scope is self.scopes[0]:
                    self.fail(f"cannot reassign parameter {name!r}", tok)
                self.fail(f"{name!r} already assigned (locals are single-assignment)", tok)
        self.scopes[-1][name] = (vid, type_)

    # -- declarations --

    def parse_kernel(self) -> KernelIR:
        self.expect("ident", "kernel")
        kernel_id = self.expect("ident")
        self.expect("punct", "{")
        self.cur = self.new_block()
        while self.at("ident", "input", "attr", "output"):
            self.parse_decl()
        self.scopes.append({})
        regions = self.parse_stmts(end="}")
        self.expect("punct", "}")
        if not self.at("eof"):
            self.fail("trailing content after kernel body")
        self.cur.terminator = ("ret",)
        self.check_terminators()
        return KernelIR(kernel_id, self.params, self.outputs, self.blocks, regions)

    def parse_decl(self):
        kind = self.next()[1]
        name_tok = self.peek()
        name = self.expect("ident")
        self.expect("punct", ":")
        dtype, type_str, entity = self.parse_type()
        self.expect("punct", ";")
        if kind == "output":
            if any(o[0] == name for o in self.outputs):
                self.fail(f"duplicate output {name!r}", name_tok)
            self.outputs.append((name, dtype))
            return
        if name in self.scopes[0]:
            self.fail(f"duplicate parameter {name!r}", name_tok)
        vid = self.new_val()
        if kind == "attr":
            if dtype not in ATTR_TYPES.values():
                self.fail("attrs must have scalar type", name_tok)
            decl = ParamDecl(name, "attr", dtype, "scalar")
            self.append("get_attr", vid, (name,))
        else:
            if dtype is DType.DT_RESOURCE:
                decl = ParamDecl(name, "input", dtype, "resource", entity=entity)
            elif dtype.is_tensor:
                decl = ParamDecl(name, "input", dtype, "tensor")
            else:
                self.fail("inputs must be tensor or resource typed", name_tok)
            self.append("get_input", vid, (sum(p.role == "input" for p in self.params),), name=name)
        # each parameter is fetched where it is declared, ahead of the body: the taint seeds
        self.params.append(decl)
        self.scopes[0][name] = (vid, type_str)

    def parse_type(self):
        tok = self.peek()
        word = self.expect("ident")
        if word == "tensor":
            self.expect("punct", "<")
            elem = self.expect("ident")
            self.expect("punct", ">")
            if elem not in _TENSOR_ELEMS:
                self.fail(f"unknown tensor element type {elem!r}", tok)
            return _TENSOR_ELEMS[elem], f"tensor:{elem}", None
        if word == "resource":
            self.expect("punct", "<")
            entity = self.expect("ident")
            self.expect("punct", ">")
            return DType.DT_RESOURCE, f"resource:{entity}", entity
        if word in ATTR_TYPES:
            return ATTR_TYPES[word], _SCALAR_TYPES[ATTR_TYPES[word].element], None
        self.fail(f"unknown type {word!r}", tok)

    # -- statements --

    def parse_stmts(self, end: str) -> list:
        regions = []
        while not self.at("punct", end):
            if self.at("eof"):
                self.fail(f"expected {end!r} before end of input")
            regions.extend(self.parse_stmt())
        return regions

    def parse_body(self, scope: dict) -> list:
        """The regions of a braced body whose locals start as `scope`."""
        self.expect("punct", "{")
        self.scopes.append(scope)
        regions = self.parse_stmts(end="}")
        self.scopes.pop()
        self.expect("punct", "}")
        return regions

    def parse_stmt(self) -> list:
        k, v, *_ = self.peek()
        if k == "ident" and v == "require":
            return [self.parse_require()]
        if k == "ident" and v == "if":
            return [self.parse_if()]
        if k == "ident" and v == "for":
            return [self.parse_for()]
        if k == "ident" and v == "emit":
            self.parse_emit()
            return []
        if k == "ident" and v == "call":
            self.parse_call_expr()
            self.expect("punct", ";")
            return []
        if k == "ident":
            self.parse_assignment()
            return []
        self.fail("expected a statement")

    def parse_require(self) -> RequireRegion:
        self.next()
        cond_tok = self.peek()
        cid, ctype = self.parse_expr()
        self.expect("punct", ",")
        if not self.at("str"):
            self.fail("require needs a message string")
        msg = self.next()[1]
        self.expect("punct", ";")
        if ctype != "bool":
            self.fail("require condition must be boolean", cond_tok)
        src = self.cur
        fail = self.new_block()
        fail.terminator = ("require_fail", msg)
        self.cur = self.new_block()
        src.terminator = ("br", cid, self.cur.bid, fail.bid, "require")
        return RequireRegion(cid, src.bid, msg)

    def parse_if(self) -> IfRegion:
        self.next()
        guard_tok = self.peek()
        gid, gtype = self.parse_expr()
        if gtype != "bool":
            self.fail("if condition must be boolean", guard_tok)
        src = self.cur
        region = IfRegion(gid, src.bid)
        self.cur = then_blk = self.new_block()
        region.then_regions = self.parse_body({})
        ends = [self.cur]
        else_blk = None
        if self.at("ident", "else"):
            self.next()
            self.cur = else_blk = self.new_block()
            region.else_regions = self.parse_body({})
            ends.append(self.cur)
        self.cur = join = self.new_block()
        src.terminator = ("br", gid, then_blk.bid, (else_blk or join).bid, "if")
        for end in ends:
            end.terminator = ("jmp", join.bid)
        return region

    def parse_for(self) -> LoopRegion:
        self.next()
        var_tok = self.peek()
        var = self.expect("ident")
        self.expect("ident", "in")
        lo_tok = self.peek()
        lo_id, lo_t = self.parse_expr()
        self.expect("punct", "..")
        hi_tok = self.peek()
        hi_id, hi_t = self.parse_expr()
        if lo_t != "int":
            self.fail("loop lower bound must be int", lo_tok)
        if hi_t != "int":
            self.fail("loop upper bound must be int", hi_tok)
        # counter slot: i = lo + 0; the latch re-binds the same id
        zero = self.emit_const(0)
        one = self.emit_const(1)
        var_id = self.new_val()
        self.append("bin", var_id, ("+", lo_id, zero), loop_var=True)
        src = self.cur
        header = self.new_block()
        src.terminator = ("jmp", header.bid)
        self.cur = body = self.new_block()
        body_regions = self.parse_body({var: (var_id, "int")})
        self.cur.instrs.append(Instruction("bin", var_id, ("+", var_id, one), {"loop_latch": True}))
        self.cur.terminator = ("jmp", header.bid)
        self.cur = self.new_block()
        cond_id = self.new_val()
        header.instrs.append(Instruction("cmp", cond_id, ("<", var_id, hi_id), {}))
        header.terminator = ("br", cond_id, body.bid, self.cur.bid, "loop")
        return LoopRegion(var_id, lo_id, hi_id, body_regions)

    def parse_emit(self):
        self.next()
        name_tok = self.peek()
        name = self.expect("ident")
        if not any(o[0] == name for o in self.outputs):
            self.fail(f"emit target {name!r} is not a declared output", name_tok)
        self.expect("punct", "=")
        vid, _ = self.parse_expr()
        self.expect("punct", ";")
        self.append("emit", None, (name, vid))

    def parse_assignment(self):
        name_tok = self.peek()
        name = self.expect("ident")
        if self.at("punct", "["):
            # tensor store: name[indices] = expr;
            base_id, base_t = self.lookup(name, name_tok)
            if not base_t.startswith("tensor:"):
                self.fail(f"cannot index non-tensor {name!r}", name_tok)
            idx_ids = self.parse_index_list()
            self.expect("punct", "=")
            val_tok = self.peek()
            vid, vt = self.parse_expr()
            elem_t = _SCALAR_TYPES[_TENSOR_ELEMS[base_t.split(":")[1]]]
            if vt != elem_t:
                self.fail(f"stored value must be {elem_t}, got {vt}", val_tok)
            self.expect("punct", ";")
            self.append("tstore", None, (base_id, tuple(idx_ids), vid))
            return
        self.expect("punct", "=")
        vid, vt = self.parse_expr()
        self.expect("punct", ";")
        self.define_local(name, vid, vt, name_tok)

    def parse_index_list(self) -> list[int]:
        self.expect("punct", "[")
        ids = []
        if not self.at("punct", "]"):
            while True:
                tok = self.peek()
                vid, vt = self.parse_expr()
                if vt != "int":
                    self.fail("tensor indices must be int", tok)
                ids.append(vid)
                if not self.at("punct", ","):
                    break
                self.next()
        self.expect("punct", "]")
        return ids

    def parse_call_expr(self) -> tuple[int, str]:
        self.expect("ident", "call")
        verb_tok = self.peek()
        verb = self.expect("ident")
        if verb not in RESOURCE_VERBS:
            self.fail(f"unknown resource verb {verb!r}", verb_tok)
        self.expect("punct", "(")
        entity = self.expect("ident")
        arg_ids = []
        first_is_handle = True
        while self.at("punct", ","):
            self.next()
            tok = self.peek()
            vid, vt = self.parse_expr()
            if first_is_handle:
                if vt != f"resource:{entity}":
                    self.fail(f"first argument of {verb} must be a resource<{entity}> handle", tok)
                first_is_handle = False
            arg_ids.append(vid)
        self.expect("punct", ")")
        if verb == "New":
            if arg_ids:
                self.fail("New takes no handle argument", verb_tok)
        elif not arg_ids:
            self.fail(f"{verb} needs a handle argument", verb_tok)
        dst = self.new_val()
        self.append("res_call", dst, (verb, entity, tuple(arg_ids)))
        rtype = {"New": f"resource:{entity}", "Pop": "opaque"}.get(verb, "int")
        return dst, rtype

    # -- expressions (returns (value_id, type)) --

    def parse_expr(self):
        return self.climb("ident", _LOGIC_LEVELS, self.parse_not, self._logic)

    def _logic(self, tok, left, right):
        op = tok[1]
        if left[1] != "bool" or right[1] != "bool":
            self.fail(f"{op} needs boolean operands", tok)
        dst = self.new_val()
        self.append("logic", dst, (op, left[0], right[0]))
        return dst, "bool"

    def parse_not(self):
        if self.at("ident", "not"):
            tok = self.next()
            inner = self.parse_not()
            if inner[1] != "bool":
                self.fail("not needs a boolean operand", tok)
            dst = self.new_val()
            self.append("logic", dst, ("not", inner[0], None))
            return dst, "bool"
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_arith()
        if self.at("punct", "==", "!=", "<", "<=", ">", ">="):
            tok = self.next()
            v = tok[1]
            right = self.parse_arith()
            lt, rt = left[1], right[1]
            if lt != rt:
                self.fail(f"cannot compare {lt} with {rt}", tok)
            if lt not in ("int", "float", "str", "bool"):
                self.fail(f"cannot compare values of type {lt}", tok)
            if v not in ("==", "!=") and lt in ("str", "bool"):
                self.fail(f"ordering comparison not defined for {lt}", tok)
            dst = self.new_val()
            self.append("cmp", dst, (v, left[0], right[0]))
            return dst, "bool"
        return left

    def parse_arith(self):
        return self.climb("punct", ARITH_LEVELS, self.parse_unary, self._arith)

    def _arith(self, tok, left, right):
        lt, rt = left[1], right[1]
        if lt != rt or lt not in ("int", "float"):
            self.fail(f"arithmetic needs matching numeric operands, got {lt} and {rt}", tok)
        dst = self.new_val()
        self.append("bin", dst, (tok[1], left[0], right[0]))
        return dst, lt

    def parse_unary(self):
        if self.at("punct", "-"):
            tok = self.next()
            inner = self.parse_unary()
            if inner[1] not in ("int", "float"):
                self.fail("unary minus needs a numeric operand", tok)
            zero = self.emit_const(0 if inner[1] == "int" else 0.0)
            dst = self.new_val()
            self.append("bin", dst, ("-", zero, inner[0]))
            return dst, inner[1]
        return self.parse_primary()

    def parse_primary(self):
        k, v, _ = self.peek()
        if k == "int":
            self.next()
            return self.emit_const(v), "int"
        if k == "float":
            self.next()
            return self.emit_const(v), "float"
        if k == "str":
            self.next()
            return self.emit_const(v), "str"
        if k == "punct" and v == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if k != "ident":
            self.fail("expected an expression")
        if v in ("true", "false"):
            self.next()
            return self.emit_const(v == "true"), "bool"
        if v == "call":
            return self.parse_call_expr()
        if v in ("rank", "dim", "size"):
            return self.parse_shape_fn()
        tok = self.next()
        vid, vt = self.lookup(v, tok)
        if self.at("punct", "["):
            if not vt.startswith("tensor:"):
                self.fail(f"cannot index value of type {vt}", tok)
            idx_ids = self.parse_index_list()
            dst = self.new_val()
            self.append("tload", dst, (vid, tuple(idx_ids)))
            return dst, _SCALAR_TYPES[_TENSOR_ELEMS[vt.split(":")[1]]]
        return vid, vt

    def parse_shape_fn(self):
        fn_tok = self.peek()
        fn = self.next()[1]
        self.expect("punct", "(")
        arg_tok = self.peek()
        vid, vt = self.parse_expr()
        if not vt.startswith("tensor:"):
            self.fail(f"{fn}() needs a tensor argument", arg_tok)
        if fn == "dim":
            self.expect("punct", ",")
            axis_tok = self.peek()
            axis_id, axis_t = self.parse_expr()
            if axis_t != "int":
                self.fail("dim() axis must be int", axis_tok)
            self.expect("punct", ")")
            dst = self.new_val()
            self.append("dim", dst, (vid, axis_id))
            return dst, "int"
        self.expect("punct", ")")
        dst = self.new_val()
        self.append(fn, dst, (vid,))
        return dst, "int"

    def check_terminators(self):
        for b in self.blocks:
            if b.terminator is None:
                raise KernelParseError(f"block {b.bid} has no terminator", 0, 0)
            if b.terminator[0] == "require_fail" and b.instrs:
                raise KernelParseError(f"require_fail block {b.bid} must be empty", 0, 0)


def parse_kernel(source: str) -> KernelIR:
    return _Lowerer(source).parse_kernel()


def def_map(kernel: KernelIR) -> dict[int, Instruction]:
    """value id -> defining instruction.  Loop latch re-definitions are skipped
    so the map reflects each value's originating definition."""
    defs: dict[int, Instruction] = {}
    for block in kernel.blocks:
        for instr in block.instrs:
            if instr.dst is None:
                continue
            if instr.meta.get("loop_latch"):
                continue
            if instr.dst not in defs:
                defs[instr.dst] = instr
    return defs
