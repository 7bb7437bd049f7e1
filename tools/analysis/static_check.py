#!/usr/bin/env python3
"""Structural static checker for the turbobp engine.

Four rules the compiler (even Clang's thread-safety analysis) cannot check,
applied over lock-scope nesting reconstructed from the source text:

  latch-order     A latch may only be acquired when its LatchClass rank is
                  strictly greater than every rank already held (no
                  same-class nesting). Ranks come from the machine-readable
                  LATCH ORDER SPEC table in src/debug/latch_order_checker.h
                  -- the single source of truth shared with DESIGN.md §7 and
                  the runtime checker.
  io-under-latch  No blocking device call (StorageDevice/DiskManager entry
                  points, WAL flushes, SSD frame I/O) while holding a latch
                  whose class the spec marks `forbidden` for device I/O
                  (kBufferPool, kWal since group commit, ...
                  -- the PR-5 invariant). Classes marked `allowed`
                  (kSsdPartition, ...) cover I/O by design, not flagged.
  ioresult        Every call to an IoResult- or Status-returning I/O
                  function must consume its result: assigned, returned,
                  compared, wrapped (TURBOBP_CHECK_OK), or explicitly
                  discarded with a (void) cast. Bare-expression statements
                  are violations. Statement scanning covers lambda bodies
                  and #define macro bodies.
  crash-point     Every function in the durability layers (src/buffer,
                  src/core, src/wal, src/engine, src/io) that performs a
                  durable write (device Write*, WriteFrame, WritePage)
                  must contain a TURBOBP_CRASH_POINT, so new durability
                  edges cannot dodge the crash-torture matrix.
  async-io        No AsyncIoEngine entry point (Submit/Reap/Drain on an
                  engine-like receiver, including an accessor call such
                  as disk_->io_engine().Submit) while holding a
                  kBufferPool, kSsdPartition or kSsdScrub
                  latch: completion callbacks re-enter the frame state
                  machine and take those latches on a fresh stack, so an
                  engine call under one deadlocks (DESIGN.md §12
                  completion-context rules), and the scrub cursor latch is
                  a declared leaf (below). Mirrors the TURBOBP_EXCLUDES
                  contracts on the engine API for builds without Clang TSA.

The latch-order rule additionally enforces leaf discipline: latches the
spec note declares leaves (kSsdScrub, the scrubber's patrol cursor) may
never have *any* tracked latch acquired under them, regardless of rank —
the scrubber holds its cursor latch only for the copy/advance arithmetic
and must release it before touching a partition or the device.

Sanctioned exceptions carry a `// check: allow(<rule>[: reason])` directive
on the offending line or the line above it.

The frontend is deliberately structural (its own lexer + scope tracker, no
LLVM dependency): it strips comments/strings, blanks preprocessor lines
(macro bodies are statement-scanned separately), splits statements at
top-level semicolons, classifies brace scopes (namespace / class / function
/ lambda / control), tracks TrackedLockGuard / std::lock_guard /
std::unique_lock / ShardLock acquisitions plus .unlock()/.lock() toggles,
and resolves lock expressions to LatchClasses via the TrackedMutex member
table scraped from the headers plus lightweight local type inference
(parameters, reference/pointer declarations, range-for over known
containers, the member scope of the enclosing `Type::Function`).

Exit status: 0 clean, 1 violations, 2 internal/config error.
"""

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC_HEADER = os.path.join("src", "debug", "latch_order_checker.h")

RULES = ("latch-order", "io-under-latch", "ioresult", "crash-point",
         "async-io")

# Directories whose functions fall under the crash-point rule (durable-write
# layers). Device models (src/storage), the fault injector (a decorator, not
# a durability edge) and the sim are exempt.
CRASH_POINT_DIRS = ("src/buffer", "src/core", "src/wal", "src/engine",
                    "src/io")

# Method names that are blocking device I/O wherever they appear.
IO_CALL_ANY_RECV = {
    "ReadPage", "ReadPages", "WritePage",
    "WriteFrame", "ReadFrameVerified",
    "FlushTo", "CommitForce",
}
# Read/Write count as device I/O only through a device-like receiver
# (StorageDevice pointers); plain Read/Write on other objects are not I/O.
DEVICE_RECV = re.compile(r"^(?:\w*device\w*|base_|data_|disk_?|ssd_device_)$")

# Durable-write calls for the crash-point rule (write side only).
DURABLE_WRITE_ANY_RECV = {"WritePage", "WriteFrame"}

# AsyncIoEngine entry points (async-io rule): only through an engine-like
# receiver, so unrelated Submit/Drain methods on other objects are not
# flagged. Completion callbacks take pool shard and SSD partition
# latches, so calling into the engine while holding one deadlocks; the
# scrub cursor latch is a declared leaf, so an engine call under it is a
# discipline breach even though no callback takes it.
ENGINE_CALLS = ("Submit", "Reap", "Drain")
# The receiver is an engine-like name, optionally called as an accessor:
# `engine.Drain(`, `io_engine_->Submit(`, `disk_->io_engine().Submit(`.
ENGINE_CALL_RE = re.compile(
    r"\b(\w*engine\w*)\s*(?:\(\s*\))?\s*(?:->|\.)\s*(" +
    "|".join(ENGINE_CALLS) + r")\s*\(")
ENGINE_FORBIDDEN = {"kBufferPool", "kSsdPartition", "kSsdScrub"}

# Leaf latches (latch-order rule): nothing — whatever its rank — may be
# acquired while one of these is held. The scrubber's patrol-cursor latch
# guards only the cursor copy/advance arithmetic; holding it across a
# partition acquisition (or any other latch) would serialize patrol against
# foreground reads and invert the independence DESIGN.md §13 promises.
LEAF_LATCHES = {"kSsdScrub"}

# Functions whose IoResult/Status return must be consumed.
RESULT_FNS_ANY_RECV = {
    "ReadPage", "ReadPages", "WritePage",
    "WriteFrame", "ReadFrameVerified",
}
RESULT_FNS_DEVICE_RECV = {"Read", "Write"}

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "try", "return"}

LOCK_DECL = re.compile(
    r"(?:^|[;{}\s])"
    r"(TrackedLockGuard|ShardLock|std::lock_guard(?:<[^;]*>)?|"
    r"std::unique_lock(?:<[^;]*>)?|std::scoped_lock(?:<[^;]*>)?)\s+"
    r"(\w+)\s*(?:\(|\{|=)\s*([^;]*)")
CALL_RE = re.compile(r"(?:([A-Za-z_]\w*)\s*(?:->|\.)\s*)?([A-Za-z_]\w*)\s*\(")


@dataclass
class LatchSpec:
    rank: int
    owner: str
    io_allowed: bool


@dataclass
class HeldLock:
    var: str            # guard variable name ('' for parameter-implied)
    latch: str          # LatchClass name, e.g. 'kBufferPool'
    line: int
    active: bool = True
    depth: int = 0      # scope-stack depth it dies at


@dataclass
class Scope:
    kind: str                      # namespace/class/function/lambda/control
    name: str = ""
    qualifier: str = ""            # for function scopes: Type in Type::Fn
    locks: list = field(default_factory=list)
    var_types: dict = field(default_factory=dict)
    # crash-point bookkeeping (function/lambda scopes)
    start_line: int = 0
    durable_write_line: int = 0
    has_crash_point: bool = False
    paren_depth_at_open: int = 0


class Violation:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_code(text):
    """Blanks comments, string/char literals and preprocessor lines while
    preserving byte positions/newlines. Returns (stripped, allow_map,
    macro_bodies) where allow_map maps line -> set of allowed rules and
    macro_bodies is a list of (line, body_text) for #define directives."""
    out = list(text)
    allow_map = {}
    n = len(text)
    i = 0
    line = 1
    state = "code"
    comment_start = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start = i
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_start = i
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
        elif state == "line_comment":
            if c == "\n":
                _scan_allow(text[comment_start:i], line, allow_map)
                state = "code"
            else:
                out[i] = " "
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                _scan_allow(text[comment_start:i], line, allow_map)
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in ("string", "char"):
            if c == "\\":
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if (state == "string" and c == '"') or (
                    state == "char" and c == "'"):
                state = "code"
            elif c != "\n":
                out[i] = " "
        if c == "\n":
            line += 1
        i += 1
    stripped = "".join(out)

    # Blank preprocessor directives (joined over \-continuations) so macro
    # braces never corrupt scope tracking; keep their bodies for the
    # statement-level ioresult scan.
    macro_bodies = []
    lines = stripped.split("\n")
    j = 0
    while j < len(lines):
        if lines[j].lstrip().startswith("#"):
            start = j
            body = [lines[j]]
            while lines[j].rstrip().endswith("\\") and j + 1 < len(lines):
                j += 1
                body.append(lines[j])
            for k in range(start, j + 1):
                lines[k] = ""
            joined = " ".join(x.rstrip("\\") for x in body)
            if re.match(r"\s*#\s*define\b", joined):
                macro_bodies.append((start + 1, joined))
        j += 1
    return "\n".join(lines), allow_map, macro_bodies


def _scan_allow(comment, line, allow_map):
    for m in re.finditer(r"check:\s*allow\(\s*([\w-]+)", comment):
        allow_map.setdefault(line, set()).add(m.group(1))
        allow_map.setdefault(line + 1, set()).add(m.group(1))


def parse_latch_spec(header_text):
    """Parses the LATCH ORDER SPEC table and cross-checks it against the
    LatchClass enum in the same header (one source of truth, verified)."""
    m = re.search(r"BEGIN LATCH ORDER SPEC(.*?)END LATCH ORDER SPEC",
                  header_text, re.S)
    if not m:
        raise RuntimeError("LATCH ORDER SPEC table not found in " +
                           SPEC_HEADER)
    spec = {}
    for row in m.group(1).splitlines():
        rm = re.match(
            r"\s*//\s*(\d+)\s+(k\w+)\s+(.+?)\s+(forbidden|allowed)\s*$", row)
        if rm:
            spec[rm.group(2)] = LatchSpec(rank=int(rm.group(1)),
                                          owner=rm.group(3),
                                          io_allowed=rm.group(4) == "allowed")
    enum = dict(re.findall(r"(k\w+)\s*=\s*(\d+)\s*,", header_text))
    for name, val in enum.items():
        if name not in spec:
            raise RuntimeError(f"enum value {name} missing from spec table")
        if spec[name].rank != int(val):
            raise RuntimeError(
                f"spec rank for {name} ({spec[name].rank}) disagrees with "
                f"enum value ({val}) -- the table is the source of truth, "
                f"fix one of them")
    for name in spec:
        if name not in enum:
            raise RuntimeError(f"spec row {name} has no enum value")
    return spec


def build_latch_tables(header_paths):
    """Scans headers for TrackedMutex members: returns
    (by_type_member, by_member, container_elem) where
      by_type_member[(Type, member)] -> LatchClass name
      by_member[member] -> set of LatchClass names (ambiguity detection)
      container_elem[member] -> element Type for vector members."""
    by_type_member = {}
    by_member = {}
    container_elem = {}
    vec_re = re.compile(
        r"std::vector<\s*(?:std::unique_ptr<\s*(\w+)\s*>|(\w+))\s*>\s+"
        r"(\w+)\s*;")
    for path in header_paths:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text, _, _ = strip_code(raw)
        # Type aliases for tracked mutexes (e.g. `using ShardMutex = ...`).
        aliases = dict(re.findall(
            r"using\s+(\w+)\s*=\s*TrackedMutex<LatchClass::(k\w+)>\s*;",
            text))
        mutex_types = "|".join(
            ["TrackedMutex<LatchClass::(?:k\\w+)>"] + sorted(aliases))
        decl_re = re.compile(
            r"(?:mutable\s+)?(" + mutex_types + r")\s+(\w+)\s*;")
        # Line-based scan tracking the innermost class/struct per depth.
        depth = 0
        names = {}
        for ln in text.split("\n"):
            tm = re.search(r"\b(?:class|struct)\s+(?:TURBOBP_\w+"
                           r'(?:\("[^"]*"\))?\s+)?(\w+)\s*(?::[^;{]*)?\{', ln)
            if tm:
                names[depth] = tm.group(1)
            for dm in decl_re.finditer(ln):
                mutex_ty, member = dm.group(1), dm.group(2)
                am = re.search(r"LatchClass::(k\w+)", mutex_ty)
                latch = am.group(1) if am else aliases[mutex_ty]
                owner = names.get(depth - 1) or names.get(depth) or ""
                by_type_member[(owner, member)] = latch
                by_member.setdefault(member, set()).add(latch)
            for vm in vec_re.finditer(ln):
                elem = vm.group(1) or vm.group(2)
                container_elem[vm.group(3)] = elem
            depth += ln.count("{") - ln.count("}")
    return by_type_member, by_member, container_elem


class FileChecker:
    def __init__(self, path, spec, by_type_member, by_member, container_elem,
                 rules, crash_rule_applies):
        self.path = path
        self.spec = spec
        self.by_type_member = by_type_member
        self.by_member = by_member
        self.container_elem = container_elem
        self.rules = rules
        self.crash_rule_applies = crash_rule_applies
        self.violations = []

    # ---------------------------------------------------------------- util
    def _allowed(self, line, rule):
        return rule in self.allow_map.get(line, ())

    def _report(self, line, rule, msg):
        if rule in self.rules and not self._allowed(line, rule):
            self.violations.append(Violation(self.path, line, rule, msg))

    def _fn_scopes(self):
        return [s for s in self.stack if s.kind in ("function", "lambda")]

    def _var_type(self, var):
        for s in reversed(self.stack):
            if var in s.var_types:
                return s.var_types[var]
        return None

    def _enclosing_qualifier(self):
        for s in reversed(self.stack):
            if s.kind in ("function", "lambda") and s.qualifier:
                return s.qualifier
            if s.kind == "class" and s.name:
                # Inline method bodies inside a class definition.
                return s.name
        return ""

    # ------------------------------------------------------ lock resolution
    def resolve_lock_expr(self, expr):
        """Maps a lock-constructor argument to a LatchClass name or None."""
        expr = expr.strip().rstrip(");")
        if "LockShard" in expr:
            return "kBufferPool"
        m = re.match(r"(?:\*)?(\w+)\s*(?:->|\.)\s*(\w+)$", expr)
        if m:
            var, member = m.group(1), m.group(2)
            vt = self._var_type(var)
            if vt and (vt, member) in self.by_type_member:
                return self.by_type_member[(vt, member)]
            classes = self.by_member.get(member, set())
            if len(classes) == 1:
                return next(iter(classes))
            return None
        m = re.match(r"(\w+)$", expr)
        if m:
            member = m.group(1)
            qual = self._enclosing_qualifier()
            if (qual, member) in self.by_type_member:
                return self.by_type_member[(qual, member)]
            classes = self.by_member.get(member, set())
            if len(classes) == 1:
                return next(iter(classes))
        return None

    def held_locks(self):
        held = []
        for s in self.stack:
            held.extend(l for l in s.locks if l.active)
        return held

    def acquire(self, latch, var, line):
        for h in self.held_locks():
            if h.latch in LEAF_LATCHES:
                self._report(
                    line, "latch-order",
                    f"acquiring {latch} while holding the leaf latch "
                    f"{h.latch} (line {h.line}): the spec declares "
                    f"{h.latch} a leaf — release it before taking any "
                    f"other latch")
                continue
            hr, nr = self.spec[h.latch].rank, self.spec[latch].rank
            if hr == nr:
                self._report(
                    line, "latch-order",
                    f"acquiring {latch} while already holding {h.latch} "
                    f"(line {h.line}): same-class nesting is forbidden")
            elif hr > nr:
                self._report(
                    line, "latch-order",
                    f"acquiring {latch} (rank {nr}) while holding {h.latch} "
                    f"(rank {hr}, line {h.line}): latch ranks must be "
                    f"strictly increasing")
        self.stack[-1].locks.append(
            HeldLock(var=var, latch=latch, line=line))

    # ------------------------------------------------------------ statements
    def handle_statement(self, stmt, line):
        if not self._fn_scopes():
            return
        stmt = stmt.strip()
        if not stmt:
            return

        # Local type inference: `Type& var = ...` / `Type* var = ...` plus
        # bare declarations like `Partition* seed_part;`.
        for dm in re.finditer(
                r"(?:const\s+)?([A-Za-z_][\w:]*)\s*[&*]+\s*(\w+)\s*=", stmt):
            ty = dm.group(1).split("::")[-1]
            if ty not in ("auto",):
                self.stack[-1].var_types[dm.group(2)] = ty
        bm = re.match(
            r"(?:const\s+)?([A-Za-z_][\w:]*)\s*[&*]+\s*(\w+)$", stmt)
        if bm and bm.group(1) != "auto":
            self.stack[-1].var_types[bm.group(2)] = \
                bm.group(1).split("::")[-1]
        # `auto& sh = *pool.shards_[i]`: element type of a known container.
        am = re.match(
            r"(?:const\s+)?auto\s*[&*]+\s*(\w+)\s*=\s*\*?\s*"
            r"(?:\w+(?:\.|->))*(\w+)\s*\[.*\]$", stmt)
        if am:
            elem = self._var_type("$elem$" + am.group(2)) or \
                self.container_elem.get(am.group(2))
            if elem:
                self.stack[-1].var_types[am.group(1)] = elem
        else:
            # `auto& sh = *shard`: propagate a known var's type over deref.
            pm = re.match(
                r"(?:const\s+)?auto\s*[&*]+\s*(\w+)\s*=\s*\*\s*(\w+)$", stmt)
            if pm:
                src = self._var_type(pm.group(2))
                if src:
                    self.stack[-1].var_types[pm.group(1)] = src
        # Local containers whose element (or pair-first) type matters for
        # range-for inference: `std::vector<std::pair<Partition*, ...>> g;`.
        cm = re.search(
            r"std::vector<\s*(?:std::pair<\s*)?(?:std::unique_ptr<\s*)?"
            r"([A-Za-z_]\w*)\s*[*>,]", stmt)
        if cm:
            nm = re.search(r">\s+(\w+)\s*(?:;|=|$)", stmt)
            if nm:
                self.stack[-1].var_types["$elem$" + nm.group(1)] = \
                    cm.group(1)

        # Lock declarations.
        lm = LOCK_DECL.search(stmt)
        if lm:
            guard, var, arg = lm.group(1), lm.group(2), lm.group(3)
            arg = arg.split(",")[0]
            latch = self.resolve_lock_expr(arg)
            if latch is None and "LockShard" in stmt:
                latch = "kBufferPool"
            if latch is not None:
                self.acquire(latch, var, line)
            elif guard in ("TrackedLockGuard", "ShardLock"):
                self._report(
                    line, "latch-order",
                    f"cannot resolve the latch class of {guard} argument "
                    f"'{arg.strip()}' -- add a typed local or a "
                    f"`// check: allow(latch-order: ...)` directive")
            # std::lock_guard / unique_lock on unresolved (plain std::mutex)
            # expressions are outside the tracked hierarchy: ignored.
            return

        # unlock()/lock() toggles on held guard variables.
        tm = re.match(r"(\w+)\.(unlock|lock)\(\)$", stmt)
        if tm:
            var, op = tm.group(1), tm.group(2)
            for s in reversed(self.stack):
                for l in reversed(s.locks):
                    if l.var == var:
                        if op == "unlock":
                            l.active = False
                        else:
                            if not l.active:
                                l.active = True
                                # Re-taking: order-check against other held.
                                others = [h for h in self.held_locks()
                                          if h is not l]
                                for h in others:
                                    if (self.spec[h.latch].rank >=
                                            self.spec[l.latch].rank):
                                        self._report(
                                            line, "latch-order",
                                            f"re-acquiring {l.latch} while "
                                            f"holding {h.latch}")
                        return
            return

        self.scan_calls(stmt, line)

    def scan_calls(self, stmt, line):
        held_forbidden = [h for h in self.held_locks()
                          if not self.spec[h.latch].io_allowed]
        fn_scope = self._fn_scopes()[-1] if self._fn_scopes() else None

        if "TURBOBP_CRASH_POINT" in stmt and fn_scope is not None:
            fn_scope.has_crash_point = True

        for em in ENGINE_CALL_RE.finditer(stmt):
            held_engine_forbidden = [
                h for h in self.held_locks() if h.latch in ENGINE_FORBIDDEN]
            if held_engine_forbidden:
                h = held_engine_forbidden[0]
                self._report(
                    line, "async-io",
                    f"AsyncIoEngine::{em.group(2)}() while holding {h.latch} "
                    f"(acquired line {h.line}); engine completion "
                    f"callbacks take that latch class on a fresh stack "
                    f"-- release it before entering the engine")

        for cm in CALL_RE.finditer(stmt):
            recv, fn = cm.group(1), cm.group(2)
            is_io = fn in IO_CALL_ANY_RECV or (
                fn in ("Read", "Write") and recv and DEVICE_RECV.match(recv))
            if not is_io:
                continue
            if held_forbidden:
                h = held_forbidden[0]
                self._report(
                    line, "io-under-latch",
                    f"device I/O call {fn}() while holding {h.latch} "
                    f"(acquired line {h.line}); the spec marks {h.latch} "
                    f"device-io=forbidden -- release the latch first")
            durable = fn in DURABLE_WRITE_ANY_RECV or (
                fn == "Write" and recv and DEVICE_RECV.match(recv))
            if durable and fn_scope is not None and \
                    not fn_scope.durable_write_line:
                fn_scope.durable_write_line = line

        self.check_dropped_result(stmt, line)

    def check_dropped_result(self, stmt, line):
        # A violation is a *bare* expression statement whose outermost
        # expression is a result-returning I/O call.
        m = re.match(
            r"^(?:(\w+(?:\[[^\]]*\])?)\s*(?:->|\.)\s*)?([A-Za-z_]\w*)\s*\(",
            stmt)
        if not m:
            return
        recv, fn = m.group(1), m.group(2)
        hit = fn in RESULT_FNS_ANY_RECV or (
            fn in RESULT_FNS_DEVICE_RECV and recv and DEVICE_RECV.match(recv))
        if not hit:
            return
        # Consumed if the call is not the entire statement (assignment,
        # return, wrap) -- those never re-match at position 0 -- so only a
        # full-statement match lands here. Verify the match really spans the
        # statement (no trailing operators like `.status`, `== x`, `? :`).
        close = self._matching_paren(stmt, m.end() - 1)
        if close is None or stmt[close + 1:].strip() not in ("", ";"):
            return
        self._report(
            line, "ioresult",
            f"result of {fn}() is dropped; assign it, wrap it "
            f"(TURBOBP_CHECK_OK) or discard explicitly with (void)")

    @staticmethod
    def _matching_paren(s, open_idx):
        depth = 0
        for i in range(open_idx, len(s)):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth == 0:
                    return i
        return None

    # ----------------------------------------------------------- scope walk
    def classify_open(self, head, line):
        h = head.strip()
        if not h:
            return Scope(kind="block")
        if re.search(r"\bnamespace\b", h):
            return Scope(kind="namespace")
        cm = re.search(
            r"\b(?:class|struct|union)\s+(?:TURBOBP_\w+\s*(?:\([^()]*\))?"
            r"\s+)?(\w+)\s*(?:final\s*)?(?::[^;{()]*)?$", h)
        if cm:
            return Scope(kind="class", name=cm.group(1))
        lam = re.search(r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*"
                        r"(?:mutable\b\s*)?(?:->\s*[\w:<>&*\s]+)?$", h)
        if lam:
            sc = Scope(kind="lambda", start_line=line,
                       qualifier=self._enclosing_qualifier())
            return sc
        ctl = re.search(r"\b(if|for|while|switch|catch)\s*\(", h)
        last_tok = re.findall(r"[\w)]+", h)
        if h in ("else", "do", "try") or (
                last_tok and last_tok[-1] in ("else", "do", "try")):
            return Scope(kind="control")
        if ctl:
            # Control scope; harvest range-for element types. Handles plain
            # vars and structured bindings (`auto& [part, rec] : group`, the
            # first binding gets the element/pair-first type).
            sc = Scope(kind="control")
            fm = re.search(r"for\s*\(\s*(?:const\s+)?auto\s*[&*]?\s*"
                           r"(?:\[\s*(\w+)[^\]]*\]|(\w+))\s*:\s*"
                           r"(?:\w+(?:\.|->))*(\w+)", h)
            if fm:
                var, cont = fm.group(1) or fm.group(2), fm.group(3)
                elem = self._var_type("$elem$" + cont) or \
                    self.container_elem.get(cont)
                if elem:
                    sc.var_types[var] = elem
            else:
                fm2 = re.search(r"for\s*\(\s*(?:const\s+)?([A-Za-z_][\w:]*)"
                                r"\s*[&*]\s*(\w+)\s*:", h)
                if fm2:
                    sc.var_types[fm2.group(2)] = \
                        fm2.group(1).split("::")[-1]
            return sc
        # Function definition? Needs a parameter list and must not be an
        # initializer (`= {`) or a bare expression.
        if "(" in h and not h.endswith(("=", ",", "(")):
            nm = None
            for fm in re.finditer(r"([\w~]+)\s*\(", h):
                kw = fm.group(1)
                if kw not in CONTROL_KEYWORDS and not kw.startswith(
                        "TURBOBP_"):
                    nm = fm
                    break
            if nm:
                full = h[:nm.end() - 1].strip()
                qual = ""
                qm = re.search(r"(\w+)\s*::\s*[\w~]+$", full)
                if qm:
                    qual = qm.group(1)
                sc = Scope(kind="function", name=nm.group(1), qualifier=qual,
                           start_line=line)
                # Parameters that are pre-held locks (ShardLock& lock).
                pm = re.search(r"ShardLock\s*&\s*(\w+)", h)
                if pm:
                    sc.locks.append(HeldLock(var=pm.group(1),
                                             latch="kBufferPool", line=line))
                # Parameter type inference: `Type& var` / `Type* var`.
                params = h[nm.end():]
                for tm in re.finditer(
                        r"(?:const\s+)?([A-Za-z_][\w:]*)\s*[&*]+\s*(\w+)",
                        params):
                    sc.var_types[tm.group(2)] = tm.group(1).split("::")[-1]
                return sc
        return Scope(kind="block")

    def close_scope(self):
        sc = self.stack.pop()
        if sc.kind in ("function", "lambda") and self.crash_rule_applies:
            if sc.durable_write_line and not sc.has_crash_point:
                self._report(
                    sc.durable_write_line, "crash-point",
                    f"function '{sc.name or '<lambda>'}' performs a durable "
                    f"write but contains no TURBOBP_CRASH_POINT -- new "
                    f"durability edges must be coverable by the crash-"
                    f"torture matrix")
        elif sc.kind in ("function", "lambda") and sc.durable_write_line and \
                sc.has_crash_point is False and self.stack:
            # Outside crash-point dirs: attribute nothing, but let an
            # enclosing function know nothing (no propagation needed).
            pass

    def run(self, raw_text):
        text, self.allow_map, macro_bodies = strip_code(raw_text)
        self.stack = []
        line = 1
        chunk_start = 0
        chunk_line = 1
        paren = 0
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
            elif c == "(":
                paren += 1
            elif c == ")":
                paren = max(0, paren - 1)
            elif c == ";" and paren == 0:
                self.handle_statement(text[chunk_start:i], chunk_line)
                chunk_start = i + 1
                chunk_line = line
            elif c == "{":
                head = text[chunk_start:i]
                sc = self.classify_open(head, chunk_line)
                sc.paren_depth_at_open = paren
                paren = 0
                self.stack.append(sc)
                chunk_start = i + 1
                chunk_line = line
            elif c == "}":
                self.handle_statement(text[chunk_start:i], chunk_line)
                if self.stack:
                    paren = self.stack[-1].paren_depth_at_open
                    self.close_scope()
                chunk_start = i + 1
                chunk_line = line
            i += 1

        # Macro bodies: statement-level ioresult scan only.
        for mline, body in macro_bodies:
            body = re.sub(r"^\s*#\s*define\s+\w+(\([^)]*\))?", "", body)
            self.stack = [Scope(kind="function", name="<macro>",
                                start_line=mline)]
            for stmt in body.split(";"):
                self.check_dropped_result(stmt.strip(), mline)
            self.stack = []
        return self.violations


def default_file_set():
    files = []
    for root, dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        dirs.sort()
        for nm in sorted(names):
            if nm.endswith((".h", ".cc")):
                files.append(os.path.join(root, nm))
    return files


def header_file_set():
    files = []
    for root, dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        dirs.sort()
        for nm in sorted(names):
            if nm.endswith(".h"):
                files.append(os.path.join(root, nm))
    return files


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to check (default: all of src/)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset to enforce")
    ap.add_argument("--list-latches", action="store_true",
                    help="dump the parsed latch spec and mutex tables")
    args = ap.parse_args(argv)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for r in rules:
        if r not in RULES:
            print(f"unknown rule '{r}' (known: {', '.join(RULES)})",
                  file=sys.stderr)
            return 2

    spec_path = os.path.join(REPO_ROOT, SPEC_HEADER)
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = parse_latch_spec(f.read())
    except (OSError, RuntimeError) as e:
        print(f"static_check: {e}", file=sys.stderr)
        return 2

    by_type_member, by_member, container_elem = \
        build_latch_tables(header_file_set())

    if args.list_latches:
        for name, s in sorted(spec.items(), key=lambda kv: kv[1].rank):
            print(f"{s.rank}  {name:<14} {s.owner:<32} "
                  f"{'allowed' if s.io_allowed else 'forbidden'}")
        for (ty, member), latch in sorted(by_type_member.items()):
            print(f"  {ty}::{member} -> {latch}")
        return 0

    explicit = bool(args.files)
    files = [os.path.abspath(f) for f in args.files] or default_file_set()

    all_violations = []
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        crash_applies = explicit or any(
            rel.startswith(d + os.sep) or rel.startswith(d + "/")
            for d in CRASH_POINT_DIRS)
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except OSError as e:
            print(f"static_check: {e}", file=sys.stderr)
            return 2
        checker = FileChecker(rel, spec, by_type_member, by_member,
                              container_elem, rules, crash_applies)
        all_violations.extend(checker.run(raw))

    for v in sorted(all_violations, key=lambda v: (v.path, v.line)):
        print(v)
    if all_violations:
        print(f"static_check: {len(all_violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
