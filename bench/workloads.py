"""The benchmark's workloads: inputs made from a seed, and exact checks.

Each workload builds its inputs once per set-up from the public ``qha``
API and returns the operations of one pass.  An operation is a callable
that raises ``CheckFailed`` (or any exception) when its output is wrong;
the expected values do not depend on the seed.

Seed 0 is the canonical input.  Any other seed applies a seeded monomial
change of basis (a permutation times a nonzero diagonal) to the algebra
object A, which gives an isomorphic algebra object and so the same
dimensions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output of qha differs from the expected value."""


def expect(what, got, want):
    if got != want:
        raise CheckFailed("%s: got %r, expected %r" % (what, got, want))


# -- seeded change of basis of an algebra object ------------------------------

# Over Q the diagonal is a sign pattern: other rationals would make every
# later Fraction operation costlier, so a run's time would depend on its seed.
Q_SCALARS = (Fraction(1), Fraction(-1))


def monomial_pair(q, field, n, rng):
    """A seeded monomial matrix G = P D and its inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    if field.characteristic:
        diag = [rng.randrange(1, field.characteristic) for _ in range(n)]
    else:
        diag = [rng.choice(Q_SCALARS) for _ in range(n)]
    g = [field.zero] * (n * n)
    g_inv = [field.zero] * (n * n)
    for i in range(n):
        g[perm[i] * n + i] = diag[i]
        g_inv[i * n + perm[i]] = field.inv(diag[i])
    Matrix = q.linalg.Matrix
    return Matrix(field, n, n, g), Matrix(field, n, n, g_inv)


def change_basis(q, A, seed):
    """The algebra object A in new coordinates x' = G x; A itself for seed 0."""
    if seed == 0:
        return A
    f = A.field
    g, g_inv = monomial_pair(q, f, A.carrier.dim, random.Random(seed))
    carrier = type(A.carrier)(A.parent, [g * m * g_inv for m in A.carrier.mats],
                              name=A.carrier.name)
    g_inv_sq = g_inv.kron(g_inv)
    if A.is_algebroid:
        # mult acts on the quotient of A (x) A by the base relations
        tensor_over_base = q.algebroid.tensor_over_base
        old_rel = tensor_over_base(A.carrier, A.carrier)[1]
        new_rel = tensor_over_base(carrier, carrier)[1]
        mult = g * A.mult * old_rel.projector * g_inv_sq * new_rel.lift
    else:
        mult = g * A.mult * g_inv_sq
    return q.cyclic.ModuleAlgebra(carrier, mult, g * A.unit)


def dual_numbers_eps(q, H):
    """k[x]/x^2 with H acting through the counit."""
    f = H.field
    Matrix = q.linalg.Matrix
    carrier = q.quasihopf.HModule(
        H, [Matrix.identity(f, 2).scale(H.counit[i]) for i in range(H.dim)], name="A")
    o, z = f.one, f.zero
    # columns: 1.1 = 1, 1.x = x.1 = x, x.x = 0
    mult = Matrix.from_cols(f, [(o, z), (z, o), (z, o), (z, z)], ambient=2)
    unit = Matrix.from_cols(f, [(o, z)], ambient=2)
    return q.cyclic.ModuleAlgebra(carrier, mult, unit)


def functions_on_cyclic(q, H, n):
    """k^(C_n), the functions on the group, with kC_n acting by translation."""
    f = H.field
    Matrix = q.linalg.Matrix
    mats = []
    for g in range(n):
        ent = [f.zero] * (n * n)
        for i in range(n):
            ent[((i + g) % n) * n + i] = f.one
        mats.append(Matrix(f, n, n, ent))
    carrier = q.quasihopf.HModule(H, mats, name="k^C%d" % n)
    cols = []
    for i in range(n):
        for j in range(n):
            cols.append(tuple(f.one if (i == j == k) else f.zero for k in range(n)))
    mult = Matrix.from_cols(f, cols, ambient=n)
    unit = Matrix.from_cols(f, [(f.one,) * n], ambient=n)
    return q.cyclic.ModuleAlgebra(carrier, mult, unit)


def trivial_contramodule(q, H, flavor):
    k = q.quasihopf.trivial_module(H)
    return q.coefficients.Contramodule(k, q.coefficients.evaluation_at_unit(k), flavor)


def algebroid_coefficient(q, H):
    """The stable ALGEBROID_MU contraaction on the base of the enveloping
    algebroid of the dual numbers."""
    f = H.field
    mu = q.linalg.Matrix(f, 2, 8, [f.from_int(x) for x in
                                   (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0)])
    return q.coefficients.Contramodule(q.algebroid.base_module(H), mu,
                                       q.coefficients.ALGEBROID_MU)


# -- library workloads ---------------------------------------------------------

class LibraryWorkload:
    """build_cocyclic, then cyclic and Hochschild cohomology, checked exactly."""

    def __init__(self, name, why, n_max, degree, dims, hc, hh):
        self.name = name
        self.why = why
        self.n_max = n_max
        self.degree = degree
        self.dims = dims
        self.hc = hc
        self.hh = hh

    def inputs(self, q, seed):
        raise NotImplementedError

    def setup(self, q, seed, workdir):
        A, M = self.inputs(q, seed)
        return {"q": q, "A": A, "M": M}

    def operations(self, state):
        q, A, M = state["q"], state["A"], state["M"]
        built = {}

        def build():
            cc = q.cyclic.build_cocyclic(A, M, self.n_max)
            built["cc"] = cc
            expect("dim C^n", [cc.dim(n) for n in range(self.n_max + 1)], self.dims)

        def cyclic():
            expect("HC", q.cyclic.cyclic_cohomology(built["cc"], self.degree).dims, self.hc)

        def hochschild():
            expect("HH", q.cyclic.hochschild_cohomology(built["cc"], self.degree).dims,
                   self.hh)

        return [("build_cocyclic", build), ("cyclic_cohomology", cyclic),
                ("hochschild_cohomology", hochschild)]


class QuasiQ(LibraryWorkload):
    def __init__(self):
        super().__init__(
            "quasi-Q",
            "genuinely quasi (nontrivial Phi) over Q: the cyclic operator "
            "iota_apply -> zeta_l/eta_r with Fraction scalars dominates",
            n_max=5, degree=4, dims=[2, 4, 8, 16, 32, 64],
            hc=[2, 0, 2, 0, 2], hh=[2, 1, 1, 1, 1])

    def inputs(self, q, seed):
        QQ = q.fields.rationals()
        qh = q.quasihopf
        H = qh.twisted_dual_group_algebra(QQ, qh.cyclic_group_table(2),
                                          qh.z2_nontrivial_cocycle(QQ))
        A = change_basis(q, dual_numbers_eps(q, H), seed)
        return A, trivial_contramodule(q, H, q.coefficients.QUASI_I)


class HopfGF7(LibraryWorkload):
    def __init__(self):
        super().__init__(
            "hopf-GF7",
            "largest matrices (ambient 3^5) with cheap GF(7) scalars and trivial "
            "Phi: dense linalg mul/kron/rref and intertwiner spaces dominate",
            n_max=4, degree=3, dims=[1, 3, 9, 27, 81],
            hc=[1, 0, 1, 0], hh=[1, 0, 0, 0])

    def inputs(self, q, seed):
        F7 = q.fields.prime_field(7)
        H = q.quasihopf.group_algebra(F7, q.quasihopf.cyclic_group_table(3), "kC3")
        A = change_basis(q, functions_on_cyclic(q, H, 3), seed)
        return A, trivial_contramodule(q, H, q.coefficients.HOPF_MU)


# -- the command-line session --------------------------------------------------

class CliQ:
    """A qha session over Q driven in-process through qha.cli.main."""

    name = "cli-Q"
    why = ("how users run the tool: structures/cli/algebroid layers and both "
           "axiom suites; small Hom spaces inside 2^11-dim ambient tensor powers")

    ALGEBROID_HC = [2, 0] * 5
    ALGEBROID_HH = [2] + [0] * 9
    TWISTED_HC = [1, 0, 1, 0, 1, 0, 1]

    def setup(self, q, seed, workdir):
        QQ = q.fields.rationals()
        qh, st = q.quasihopf, q.structures
        files = {k: os.path.join(workdir, k + ".json") for k in
                 ("ks4", "env", "tw", "env_mu", "env_alg", "tw_mu", "tw_mu2", "tw_alg")}
        env = q.algebroid.enveloping_algebroid(q.algebroid.base_ring_dual_numbers(QQ))
        tw = qh.twisted_dual_group_algebra(QQ, qh.cyclic_group_table(2),
                                           qh.z2_nontrivial_cocycle(QQ))
        st.write_structure(files["ks4"],
                           qh.group_algebra(QQ, qh.symmetric_group_table(4), "kS4"), "kS4")
        st.write_structure(files["env"], env, "env")
        st.write_structure(files["tw"], tw, "k^Z2_w")
        st.write_structure(files["env_mu"], algebroid_coefficient(q, env), "stableM")
        st.write_structure(files["env_alg"],
                           change_basis(q, q.cyclic.unit_algebra(env), seed), "unitA")
        st.write_structure(files["tw_mu"],
                           trivial_contramodule(q, tw, q.coefficients.QUASI_I), "trivialM")
        st.write_structure(files["tw_alg"],
                           change_basis(q, q.cyclic.unit_algebra(tw), seed), "unitA")
        return {"q": q, "files": files, "digests": {}}

    def operations(self, state):
        q, p, digests = state["q"], state["files"], state["digests"]

        def run(label, argv, dims=None, report=True):
            def op():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = q.cli.main(argv + (["--reproducible"] if report else []))
                expect("%s exit code (stderr %r)" % (label, err.getvalue()), code, 0)
                if report:
                    text = out.getvalue()
                    doc = json.loads(text)
                    expect("%s pass" % label, doc.get("pass"), True)
                    if dims is not None:
                        expect("%s dims" % label, doc.get("dims"), dims)
                    data = text.encode("utf-8")
                else:
                    with open(argv[argv.index("--out") + 1], "rb") as fh:
                        data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                expect("%s reproducible sha256" % label,
                       digests.setdefault(label, digest), digest)
            return label, op

        return [
            run("check kS4", ["check", p["ks4"]]),
            run("check env", ["check", p["env"]]),
            run("check twisted", ["check", p["tw"]]),
            run("ayd env", ["ayd", p["env"], p["env_mu"]]),
            run("stability env", ["stability", p["env"], p["env_mu"]]),
            run("convert typeII", ["convert", p["tw_mu"], "--to", "typeII",
                                   "--out", p["tw_mu2"]], report=False),
            run("ayd twisted typeII", ["ayd", p["tw"], p["tw_mu2"]]),
            run("stability twisted typeII", ["stability", p["tw"], p["tw_mu2"]]),
            run("cohomology env cyclic",
                ["cohomology", p["env"], p["env_alg"], p["env_mu"], "--degree", "9",
                 "--theory", "cyclic"], dims=self.ALGEBROID_HC),
            run("cohomology env hochschild",
                ["cohomology", p["env"], p["env_alg"], p["env_mu"], "--degree", "9",
                 "--theory", "hochschild"], dims=self.ALGEBROID_HH),
            run("cohomology twisted cyclic",
                ["cohomology", p["tw"], p["tw_alg"], p["tw_mu"], "--degree", "6",
                 "--theory", "cyclic"], dims=self.TWISTED_HC),
        ]


WORKLOADS = {w.name: w for w in (QuasiQ(), HopfGF7(), CliQ())}
