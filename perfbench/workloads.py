"""The benchmark's workloads: seeded inputs, operations and correctness gates.

A workload object is built from the imported package and a seed (that is
the set-up), then exposes

* ``ops``: the operations, each a zero-argument callable, issued one after
  another by a single caller (a closed loop);
* ``fingerprint(i, result)``: a compact, checkable summary of what
  operation ``i`` returned, taken outside the operation's timing;
* ``gate(fingerprints)``: ``{i: reason}`` for every operation whose output
  does not match what was recorded at the seed commit (the references under
  ``reference/``, written by ``record_reference.py``).

Operations call into the package through module attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate_digests(expected: dict, observed: dict) -> dict:
    """{key: reason} for every observed digest that differs from the expected one."""
    bad = {}
    for key, digest in observed.items():
        want = expected.get(key)
        if want is None:
            bad[key] = "no reference digest"
        elif digest != want:
            bad[key] = f"digest {digest[:12]} != reference {want[:12]}"
    return bad


# ---------------------------------------------------------------------------
# verify-grid: the identity suites at the CLI's default depth
# ---------------------------------------------------------------------------

class VerifyGrid:
    """identity_suite for every built-in at three lambdas, then limit_suite.

    The seed shuffles the order of the distributions.  The three suites of
    one distribution stay together, in LAMBDAS order, so the work that the
    suites of one distribution share (its memoized partial sums) is always
    paid by the same suite; limit_suite stays last.
    """

    name = "verify-grid"
    LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
    NMAX = 8
    DEPTH = 60

    def __init__(self, ps, seed: int):
        self.ps = ps
        rvs = list(ps.builtin_random_vars())
        random.Random(seed).shuffle(rvs)
        cases = list(product(rvs, self.LAMBDAS))
        self.keys = [f"identity_suite|{rv.describe()}|{lam}" for rv, lam in cases]
        self.ops = [self._suite(rv, lam) for rv, lam in cases]
        self.keys.append(f"limit_suite|{self.NMAX}")
        self.ops.append(lambda: ps.verify.limit_suite(self.NMAX))
        self.records = 0
        self.inconclusive = 0
        self.bytes_out = 0

    def _suite(self, rv, lam):
        return lambda: self.ps.verify.identity_suite(rv, lam, self.NMAX, depth=self.DEPTH)

    def fingerprint(self, i: int, report):
        records = [(r.identity, r.rv, r.lam, r.status) for r in report.records]
        self.records += len(records)
        self.inconclusive += sum(status == "inconclusive" for *_, status in records)
        return records

    def gate(self, fingerprints) -> dict:
        reference = _load_reference("verify_grid")
        bad = {}
        for i, records in enumerate(fingerprints):
            if records is None:
                continue
            fails = [r for r in records if r[3] == "fail"]
            seen = Counter("|".join(r[:3]) for r in records)
            want = Counter(reference.get(self.keys[i], []))
            if fails:
                bad[i] = f"{len(fails)} fail record(s), first {fails[0][0]}"
            elif seen != want:
                bad[i] = f"record set differs from the reference ({len(records)} vs {sum(want.values())})"
        return bad


# ---------------------------------------------------------------------------
# tables: CLI table generation at order 30
# ---------------------------------------------------------------------------

def cli_rv_spec(rv) -> str:
    """The CLI text for a named random variable, e.g. "binomial:m=3,p=1/2"."""
    if not rv.params:
        return rv.kind
    return rv.kind + ":" + ",".join(f"{k}={v}" for k, v in rv.params)


class Tables:
    """The CLI's table and series commands for every built-in at lambda 1/2.

    Per distribution: ``table --family prob-s2|prob-s1|prob-h|prob-g --nmax
    30`` and ``series --kind prob-log --order 30``, run in-process through
    ``cli.main`` with stdout captured.  The seed shuffles the order of the
    distributions; the five commands of one distribution stay together.
    """

    name = "tables"
    LAMBDA = "1/2"
    N = 30

    def __init__(self, ps, seed: int):
        self.ps = ps
        rvs = list(ps.builtin_random_vars())
        random.Random(seed).shuffle(rvs)
        self.argvs = []
        for rv in rvs:
            spec = cli_rv_spec(rv)
            for family in ("prob-s2", "prob-s1", "prob-h", "prob-g"):
                self.argvs.append(["table", "--family", family, "--rv", spec,
                                   "--lambda", self.LAMBDA, "--nmax", str(self.N)])
            self.argvs.append(["series", "--kind", "prob-log", "--rv", spec,
                               "--lambda", self.LAMBDA, "--order", str(self.N)])
        self.keys = [" ".join(argv) for argv in self.argvs]
        self.ops = [self._command(argv) for argv in self.argvs]
        self.bytes_out = 0
        self.records = 0
        self.inconclusive = 0

    def _command(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.ps.cli.main(argv)
            return code, out.getvalue().encode("utf-8"), err.getvalue()
        return run

    def fingerprint(self, i: int, result):
        code, data, err = result
        self.bytes_out += len(data)
        return code, sha256_hex(data), err

    def gate(self, fingerprints) -> dict:
        reference = _load_reference("tables")
        bad = {}
        observed = {}
        for i, fp in enumerate(fingerprints):
            if fp is None:
                continue
            code, digest, err = fp
            if code != 0:
                bad[i] = f"exit code {code}: {err.strip()[:200]}"
            else:
                observed[i] = digest
        wrong = gate_digests({i: reference.get(self.keys[i]) for i in observed}, observed)
        bad.update(wrong)
        return bad


@contextlib.contextmanager
def corrupt_one_table_entry(ps):
    """Negative control: every prob triangle the CLI prints gets entry (2, 1) + 1.

    Rebinds ``prob_triangle`` in the CLI's namespace only, so the program
    itself is untouched on disk.
    """
    original = ps.cli.prob_triangle

    def corrupted(*args, **kwargs):
        t = original(*args, **kwargs)
        rows = [list(r) for r in t.rows]
        if t.nmax >= 2:
            rows[2][1] += 1
        return type(t)(t.family, t.lam, t.nmax, tuple(tuple(r) for r in rows), t.params)

    ps.cli.prob_triangle = corrupted
    try:
        yield
    finally:
        ps.cli.prob_triangle = original


# ---------------------------------------------------------------------------
# lookups: a skewed stream of small memoized library queries
# ---------------------------------------------------------------------------

POOL_SEED = 1729
POOL_SIZE = 300
POOL_PER_KIND = 37                   # 8 kinds with parameters; uniform01 fills the rest
QUERIES = 5000
NAMED_KINDS = ("bernoulli", "binomial", "poisson", "exponential", "gamma",
               "geometric", "normal", "negbinomial", "uniform01")

# query type -> the argument tuples a query of that type draws from, uniformly
QUERY_ARGS = {
    "prob_triangle": (("s2",), ("s1",)),
    "closed_form": tuple((n, k) for n in range(1, 7) for k in range(1, n + 1)),
    "sj_moment": tuple((j, n) for j in range(1, 4) for n in range(7)),
    "schlomilch_s1": tuple((n, k) for n in range(1, 7) for k in range(1, n + 1)),
    "prob_order_numbers": tuple(product(("bernoulli", "daehee", "cauchy"), (1, 2, -1))),
}
# query type -> its relative share of the stream
QUERY_WEIGHTS = {
    "prob_triangle": 25, "closed_form": 20, "sj_moment": 20,
    "schlomilch_s1": 15, "prob_order_numbers": 20,
}
TRIANGLE_NMAX = 12
ORDER_NUMBERS_ORDER = 10


def _random_rv(RandomVar, kind: str, rng: random.Random):
    def unit():                      # a rational strictly inside (0, 1)
        b = rng.randint(2, 5)
        return Fraction(rng.randint(1, b - 1), b)

    def positive():
        return Fraction(rng.randint(1, 4), rng.randint(1, 3))

    if kind == "bernoulli":
        return RandomVar.bernoulli(unit())
    if kind == "binomial":
        return RandomVar.binomial(rng.randint(1, 4), unit())
    if kind == "poisson":
        return RandomVar.poisson(positive())
    if kind == "exponential":
        return RandomVar.exponential(positive())
    if kind == "gamma":
        return RandomVar.gamma(positive(), positive())
    if kind == "geometric":
        return RandomVar.geometric(unit())
    if kind == "normal":
        return RandomVar.normal(rng.choice((1, -1)) * positive(), positive())
    if kind == "negbinomial":
        return RandomVar.negbinomial(rng.randint(1, 3), unit())
    raise ValueError(f"{kind} has no parameters to draw")


def lookup_pool(ps) -> list:
    """The fixed catalogue of distinct (rv, lam) keys, drawn from POOL_SEED.

    Each kind with parameters gets POOL_PER_KIND keys; uniform01, which has
    none, gets one key per lambda until the pool is full.
    """
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    for kind in NAMED_KINDS[:-1]:
        count = 0
        while count < POOL_PER_KIND:
            key = (_random_rv(ps.RandomVar, kind, rng), rng.choice(ps.DEFAULT_LAMBDA_GRID))
            if key not in seen:
                seen.add(key)
                pool.append(key)
                count += 1
    uniform = ps.RandomVar.uniform01()
    pool += [(uniform, lam) for lam in ps.DEFAULT_LAMBDA_GRID[:POOL_SIZE - len(pool)]]
    return pool


def popularity_ranking(pool, rng: random.Random) -> list:
    """Pool indices from most to least popular, kinds interleaved.

    Round r ranks one not yet ranked key of every kind, the kinds in
    NAMED_KINDS order rotated by r; the seed only picks which key of each
    kind comes next.  The hottest keys therefore always span all kinds in
    the same pattern, and the cost of a stream does not hinge on which
    kind the seed happens to put first.
    """
    by_kind = {kind: [] for kind in NAMED_KINDS}
    for index, (rv, _) in enumerate(pool):
        by_kind[rv.kind].append(index)
    for indices in by_kind.values():
        rng.shuffle(indices)
    ranking = []
    for r in range(len(pool)):
        kinds = NAMED_KINDS[r % len(NAMED_KINDS):] + NAMED_KINDS[:r % len(NAMED_KINDS)]
        ranking += [by_kind[kind].pop() for kind in kinds if by_kind[kind]]
    return ranking


def key_label(rv, lam) -> str:
    return f"{rv.describe()}|{lam}"


def query_types(rv) -> tuple:
    """Query types valid for rv: closed forms only where they are exact."""
    return tuple(q for q in QUERY_ARGS
                 if not (q == "closed_form" and rv.kind == "negbinomial"))


def lookup_call(ps, qtype: str, rv, lam, args):
    """Issue one query; returns the exact answer."""
    if qtype == "prob_triangle":
        return ps.prob.prob_triangle(rv, lam, args[0], TRIANGLE_NMAX)
    if qtype == "closed_form":
        return ps.closedforms.closed_form(rv, lam, "s2", *args)
    if qtype == "sj_moment":
        return ps.prob.sj_moment(rv, lam, *args)
    if qtype == "schlomilch_s1":
        return ps.prob.schlomilch_s1(rv, lam, *args)
    family, gamma = args
    return ps.prob.prob_order_numbers(rv, lam, gamma, 0, family, ORDER_NUMBERS_ORDER)


def canonical_answer(qtype: str, answer) -> str:
    """Exact text of an answer: a Fraction, a triangle's rows or EGF coefficients."""
    if qtype == "prob_triangle":
        return ";".join(",".join(str(v) for v in row) for row in answer.rows)
    if qtype == "prob_order_numbers":
        return ",".join(str(answer.egf(n)) for n in range(answer.order + 1))
    if not isinstance(answer, Fraction):
        raise TypeError(f"{qtype} returned {type(answer).__name__}, not an exact Fraction")
    return str(answer)


def answer_digest(text: str) -> str:
    return sha256_hex(text.encode("utf-8"))[:8]


class Lookups:
    """A seeded stream of small queries over the key pool, 1/rank popularity.

    The pool of keys is fixed so that every possible answer has a recorded
    digest; the seed picks the popularity ranking of the keys (kinds
    interleaved), the query type of each request and its arguments.
    """

    name = "lookups"

    def __init__(self, ps, seed: int):
        self.ps = ps
        self.pool = lookup_pool(ps)
        rng = random.Random(seed)
        ranking = popularity_ranking(self.pool, rng)
        popularity = [1 / rank for rank in range(1, POOL_SIZE + 1)]
        self.queries = []                    # (key index, query type, argument index)
        for rank in rng.choices(range(POOL_SIZE), weights=popularity, k=QUERIES):
            key = ranking[rank]
            types = query_types(self.pool[key][0])
            qtype = rng.choices(types, weights=[QUERY_WEIGHTS[q] for q in types])[0]
            self.queries.append((key, qtype, rng.randrange(len(QUERY_ARGS[qtype]))))
        seen = set()
        repeats = 0
        for key, qtype, _ in self.queries:
            repeats += (key, qtype) in seen
            seen.add((key, qtype))
        self.key_repeat_share = repeats / len(self.queries)
        self.keys = [f"{qtype}|{key_label(*self.pool[key])}|{QUERY_ARGS[qtype][arg]}"
                     for key, qtype, arg in self.queries]
        self.ops = [self._query(*q) for q in self.queries]
        self.bytes_out = 0
        self.records = 0
        self.inconclusive = 0

    def _query(self, key: int, qtype: str, arg: int):
        rv, lam = self.pool[key]
        args = QUERY_ARGS[qtype][arg]
        return lambda: lookup_call(self.ps, qtype, rv, lam, args)

    def fingerprint(self, i: int, answer):
        return answer_digest(canonical_answer(self.queries[i][1], answer))

    def gate(self, fingerprints) -> dict:
        reference = _load_reference("lookups")
        labels = [key_label(rv, lam) for rv, lam in self.pool]
        if labels != reference["keys"]:
            return {i: "key pool differs from the reference pool"
                    for i in range(len(self.queries))}
        expected, observed = {}, {}
        for i, digest in enumerate(fingerprints):
            if digest is None:
                continue
            key, qtype, arg = self.queries[i]
            packed = reference["digests"][key][qtype]
            expected[i] = packed[8 * arg: 8 * arg + 8]
            observed[i] = digest
        return gate_digests(expected, observed)


WORKLOADS = {w.name: w for w in (VerifyGrid, Tables, Lookups)}
