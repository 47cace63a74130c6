"""Seeded generator of small closed well-typed programs with known types.

Two families, shaped like the property-test corpora:

* trace programs: flat single-summand programs built from beta redexes,
  sequencing, pair destructuring and case analysis over ground types, plus
  superpositions that appear only as results, sequencing tails and branch
  images;
* flow programs: a superposition pushed through eliminations (application to
  a superposed argument, case analysis of a superposed scrutinee, phases, and
  destructuring of a superposed pair).

Ground types are built from U and U+U with products only, so the checker's
minimal type of every program equals the type the generator records.
Everything is deterministic in the seed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections.abc import Iterator

import qlam
from qlam import BOOL, UNIT, Distribution, Prod, Sharp, Sum

STAR = qlam.Void()
PAIR = Prod(BOOL, BOOL)
GROUND = (UNIT, BOOL, PAIR, Prod(UNIT, BOOL))


def values_of(ty) -> list:
    if ty == UNIT:
        return [STAR]
    if isinstance(ty, Sum):
        return [qlam.InlV(v) for v in values_of(ty.left)] + [
            qlam.InrV(v) for v in values_of(ty.right)
        ]
    if isinstance(ty, Prod):
        return [qlam.PairV(a, b) for a in values_of(ty.left) for b in values_of(ty.right)]
    raise ValueError(f"no value inventory for {ty}")


class ProgramGen:
    def __init__(self, seed: int | str):
        self.rng = random.Random(seed)
        self.names = 0

    def fresh(self, base: str) -> str:
        self.names += 1
        return f"{base}{self.names}"

    def unit_vector(self, k: int) -> list[complex]:
        while True:
            cs = [complex(self.rng.gauss(0, 1), self.rng.gauss(0, 1)) for _ in range(k)]
            r = math.sqrt(sum(abs(c) ** 2 for c in cs))
            if r > 1e-3:
                return [c / r for c in cs]

    def phase(self) -> complex:
        return cmath.exp(1j * self.rng.uniform(0, 2 * math.pi))

    def superposition(self, core) -> Distribution:
        inv = values_of(core)
        k = self.rng.randint(2, min(4, len(inv))) if len(inv) > 1 else 1
        return Distribution(tuple(zip(self.unit_vector(k), self.rng.sample(inv, k))))

    def orthogonal_images(self, core) -> tuple[Distribution, Distribution]:
        """Two orthogonal norm-one closed value distributions over core."""
        if core == BOOL:
            th, phi, lam = (self.rng.uniform(0, 2 * math.pi) for _ in range(3))
            c, s = math.cos(th), math.sin(th)
            inl, inr = qlam.InlV(STAR), qlam.InrV(STAR)
            return (
                Distribution(((complex(c), inl), (s * cmath.exp(1j * phi), inr))),
                Distribution(
                    ((-s * cmath.exp(1j * lam), inl), (c * cmath.exp(1j * (phi + lam)), inr))
                ),
            )
        inv = values_of(core)
        self.rng.shuffle(inv)
        a, b = inv[: len(inv) // 2], inv[len(inv) // 2:]
        return (
            Distribution(tuple(zip(self.unit_vector(len(a)), a))),
            Distribution(tuple(zip(self.unit_vector(len(b)), b))),
        )

    # -- flat programs ------------------------------------------------------

    def flat_value(self, ty, env) -> Distribution:
        named = [x for x, t in env if t == ty]
        if named and self.rng.random() < 0.5:
            return qlam.singleton(qlam.Var(self.rng.choice(named)))
        return qlam.singleton(self.rng.choice(values_of(ty)))

    def flat(self, ty, depth: int, env=()) -> Distribution:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return self.flat_value(ty, env)
        ops = ["beta", "seq", "let"] + (["match"] if isinstance(ty, Sum) else [])
        op = rng.choice(ops)
        if op == "beta":
            dom = rng.choice(GROUND)
            x = self.fresh("x")
            body = self.flat(ty, depth - 1, env + ((x, dom),))
            return qlam.mk_app(qlam.Lam(x, dom, body), self.flat(dom, depth - 1, env))
        if op == "seq":
            return qlam.mk_seq(self.flat(UNIT, depth - 1, env), self.flat(ty, depth - 1, env))
        if op == "let":
            comp = Prod(rng.choice(GROUND), rng.choice(GROUND))
            x, y = self.fresh("p"), self.fresh("q")
            scrut = self.flat(comp, depth - 1, env)
            body = self.flat(ty, depth - 1, env + ((x, comp.left), (y, comp.right)))
            return qlam.mk_let(x, y, scrut, body)
        scrut = self.flat(BOOL, depth - 1, env)
        u, w = self.fresh("u"), self.fresh("w")
        if rng.random() < 0.5:
            # consume the binders; closed images keep the orthogonality
            # check within its enumeration budget
            left = qlam.mk_seq(qlam.singleton(qlam.Var(u)), qlam.mk_inl(self.flat_value(ty.left, ())))
            right = qlam.mk_seq(qlam.singleton(qlam.Var(w)), qlam.mk_inr(self.flat_value(ty.right, ())))
        else:
            left = qlam.mk_inl(self.flat_value(ty.left, env))
            right = qlam.mk_inr(self.flat_value(ty.right, env))
        return qlam.mk_match(scrut, u, left, w, right)

    # -- the two families ---------------------------------------------------

    def trace_program(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            ty = rng.choice(GROUND)
            return self.flat(ty, rng.randint(1, 4)), ty
        if roll < 0.55:
            core = rng.choice(GROUND[1:])
            return self.superposition(core), Sharp(core)
        if roll < 0.7:
            core = rng.choice(GROUND[1:])
            head = self.flat(UNIT, rng.randint(1, 2))
            return qlam.mk_seq(head, self.superposition(core)), Sharp(core)
        core = BOOL if rng.random() < 0.6 else PAIR
        img0, img1 = self.orthogonal_images(core)
        if rng.random() < 0.3:
            img0, img1 = qlam.scale(self.phase(), img0), qlam.scale(self.phase(), img1)
        scrut = self.flat(BOOL, rng.randint(1, 2))
        return qlam.mk_match(scrut, self.fresh("u"), img0, self.fresh("w"), img1), Sharp(core)

    def flow_program(self):
        rng = self.rng
        core = BOOL if rng.random() < 0.6 else PAIR
        d = self.superposition(core)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["beta", "phase"] + (["gate"] if core == BOOL else []))
            if op == "phase":
                d = qlam.scale(self.phase(), d)
            elif op == "beta":
                x = self.fresh("x")
                body = qlam.singleton(qlam.Var(x))
                if rng.random() < 0.5:
                    body = qlam.mk_seq(self.flat(UNIT, 1), body)
                d = qlam.mk_app(qlam.Lam(x, Sharp(core), body), d)
            else:
                u, w = self.fresh("u"), self.fresh("w")
                img0, img1 = self.orthogonal_images(BOOL)
                d = qlam.mk_match(
                    d,
                    u, qlam.mk_seq(qlam.singleton(qlam.Var(u)), img0),
                    w, qlam.mk_seq(qlam.singleton(qlam.Var(w)), img1),
                )
        if core == PAIR and rng.random() < 0.5:
            x, y = self.fresh("a"), self.fresh("b")
            d = qlam.mk_let(x, y, d, qlam.singleton(qlam.PairV(qlam.Var(y), qlam.Var(x))))
            return d, Sharp(Prod(Sharp(BOOL), Sharp(BOOL)))
        return d, Sharp(core)


FLOW_EVERY = 3  # one program in three comes from the flow family


def programs(seed: int | str) -> Iterator[tuple]:
    """An endless stream of (program, type) pairs."""
    g = ProgramGen(seed)
    for i in itertools.count():
        yield g.flow_program() if i % FLOW_EVERY == FLOW_EVERY - 1 else g.trace_program()
