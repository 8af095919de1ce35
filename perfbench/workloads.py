"""The four benchmark workloads.

Each workload turns the run seed into edge-list texts (see ``gen``), hands
them to kcanon's public functions in ``op`` (the timed region) and checks the
outputs in ``check`` (untimed, never traced).  A run is a whole number of
cycles; one cycle is a fixed schedule of input sizes or graph families with
fresh seeded structure, so every seed measures the same mix of work.

Calls go through the module objects (``graph.parse_edge_list``), never
through names bound at import time, so the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from kcanon import graph, signatures, solver

import gen

# canon-symmetric asks every labeling for this many node expansions: a tenth
# of the 10**6 default, above the ~75k that C12 needs to certify, and far
# below what any vertex-transitive graph with n >= 16 needs.
CANON_BUDGET = 100_000
TINY_CANON_BUDGET = 2_000

KCL_LIMIT = 1e-9
SYMMETRY_LIMIT = 1e-9


@dataclass
class Item:
    """One op's inputs: the graph texts it parses, their sizes, and context."""

    texts: tuple
    sizes: tuple  # (n, m) of every graph the op works on
    extra: dict = field(default_factory=dict)


def _mapping_preserves_edges(e1, e2, mapping) -> bool:
    n = gen.node_count(e1)
    if sorted(mapping) != list(range(1, n + 1)) or sorted(mapping.values()) != list(range(1, n + 1)):
        return False
    key = lambda u, v: (min(u, v), max(u, v))
    mapped = {key(mapping[u], mapping[v]): w for u, v, w in e1}
    return mapped == {key(u, v): w for u, v, w in e2}


class Workload:
    name = ""
    # Fixed per workload so the tail metric compares like with like across
    # commits; chosen so at least ten samples lie beyond it in a full run.
    tail_percentile = 75.0
    # True when every op asks for a decision (iso verdict, certified labeling).
    decides = False

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Program set-up paid once before the first op (timed into setup_s)."""

    def items(self, k: int) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result, stats) -> list[str]:
        """Failure reasons for one op's output; records outcome counters."""
        raise NotImplementedError

    def config(self) -> dict:
        return {}


class FingerprintLarge(Workload):
    """parse + fingerprint + digest of distinct random weighted graphs."""

    name = "fingerprint-large"
    # (n, average degree); one cycle spans n 32-96 and degree 3-10 and opens
    # with the largest graph, which sets peak memory.  Cost grows about as
    # n^2 (n + m).  Four graphs of one size sit where a cycle's p75 falls, so
    # the tail percentile does not jump between size classes from run to run.
    SIZES = [(96, 6), (32, 3), (40, 10), (44, 6), (32, 8), (64, 3), (36, 6),
             (44, 6), (36, 3), (40, 4), (44, 6), (32, 5), (48, 8), (44, 6),
             (32, 4), (34, 3), (36, 4), (38, 3), (40, 3), (32, 6)]
    TINY_SIZES = [(8, 3), (10, 4)]
    RELABEL_CHECK_SHARE = 1 / 10

    def items(self, k):
        out = []
        for i, (n, d) in enumerate(self.TINY_SIZES if self.tiny else self.SIZES):
            rng = gen.rng_for(self.seed, self.name, k, i)
            edges = gen.random_connected(rng, n, n * d // 2, lambda r: round(r.uniform(0.5, 4.0), 3))
            sampled = self.tiny or rng.random() < self.RELABEL_CHECK_SHARE
            out.append(Item((gen.edge_text(edges),), ((n, len(edges)),),
                            {"edges": edges, "relabel_key": (k, i) if sampled else None}))
        return out

    def op(self, item):
        g = graph.parse_edge_list(item.texts[0])
        return g.n, g.m, signatures.fingerprint(g).digest()

    def check(self, item, result, stats):
        n, m, digest = result
        problems = []
        if (n, m) != item.sizes[0]:
            problems.append("parsed size differs from input")
        if len(digest) != 64:
            problems.append("digest is not a sha256 hex string")
        key = item.extra["relabel_key"]
        if key is not None:
            edges = gen.relabel(gen.rng_for(self.seed, self.name, "relabel", *key), item.extra["edges"])
            other = signatures.fingerprint(graph.parse_edge_list(gen.edge_text(edges))).digest()
            stats.relabel_checks += 1
            if other != digest:
                problems.append("digest of a relabelled copy differs")
        return problems

    def config(self):
        return {"sizes_n_degree": self.TINY_SIZES if self.tiny else self.SIZES,
                "relabel_check_share": self.RELABEL_CHECK_SHARE}


class IsoRegistry(Workload):
    """iso_screen of a registered pool graph against an incoming graph."""

    name = "iso-registry"
    decides = True
    POOL = [(16, 3), (20, 5), (24, 4), (28, 6), (32, 3), (36, 5), (40, 4), (48, 3), (44, 4), (18, 6)]
    TINY_POOL = [(8, 3), (10, 3)]
    WEIGHTS = (0.5, 1.0, 2.0, 4.0)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.pool = []
        for j, (n, d) in enumerate(self.TINY_POOL if tiny else self.POOL):
            rng = gen.rng_for(seed, self.name, "pool", j)
            edges = gen.random_connected(rng, n, n * d // 2, lambda r: r.choice(self.WEIGHTS))
            self.pool.append((edges, gen.edge_text(edges)))

    def items(self, k):
        # Each pool graph meets one fresh relabelling and one double-edge swap
        # per cycle, so about half the pairs are isomorphic.
        p = len(self.pool)
        out = []
        for i in range(2 * p):
            j = i % p
            kind = "relabel" if (i // p + j) % 2 == 0 else "swap"
            rng = gen.rng_for(self.seed, self.name, k, i)
            edges, text = self.pool[j]
            incoming = edges if kind == "relabel" else gen.double_edge_swap(rng, edges)
            incoming = gen.relabel(rng, incoming)
            size = (gen.node_count(edges), len(edges))
            out.append(Item((text, gen.edge_text(incoming)), (size, size),
                            {"kind": kind, "edges": (edges, incoming)}))
        return out

    def op(self, item):
        g1 = graph.parse_edge_list(item.texts[0])
        g2 = graph.parse_edge_list(item.texts[1])
        return signatures.iso_screen(g1, g2)

    def check(self, item, verdict, stats):
        V = signatures.IsoVerdict
        problems = []
        stats.decide(verdict.kind != V.POSSIBLE, item.extra["kind"])
        if item.extra["kind"] == "relabel" and verdict.kind == V.DISTINCT:
            problems.append("relabelled pair certified distinct")
        if verdict.kind == V.ISOMORPHIC and not (
            verdict.mapping is not None and _mapping_preserves_edges(*item.extra["edges"], verdict.mapping)
        ):
            problems.append("certified mapping fails independent verification")
        if verdict.kind == V.DISTINCT:
            stats.distinct += 1
            stats.distinct_by_fingerprint += verdict.reason == "fingerprints differ"
        return problems

    def config(self):
        return {"pool_n_degree": self.TINY_POOL if self.tiny else self.POOL,
                "weights": self.WEIGHTS}


def _families(tiny: bool):
    """Vertex-transitive unweighted families: (small n 8-12, large n 16-32)."""
    if tiny:
        return [("C6", gen.cycle(6)), ("K3,3", gen.complete_bipartite(3))], [("C8", gen.cycle(8))]
    small = [("C8", gen.cycle(8)), ("C10", gen.cycle(10)), ("C12", gen.cycle(12)),
             ("Q3", gen.hypercube(3)), ("T3x3", gen.torus(3, 3)), ("Petersen", gen.petersen()),
             ("K4,4", gen.complete_bipartite(4)), ("Prism5", gen.prism(5)),
             ("Circ9(1,3)", gen.circulant(9, (1, 3)))]
    large = [("C16", gen.cycle(16)), ("Q4", gen.hypercube(4)), ("T4x4", gen.torus(4, 4)),
             ("Prism8", gen.prism(8)), ("K8,8", gen.complete_bipartite(8)),
             ("Circ16(1,3)", gen.circulant(16, (1, 3))), ("Q5", gen.hypercube(5))]
    return small, large


class CanonSymmetric(Workload):
    """orbit_partition + canonical_labeling of relabelled symmetric graphs."""

    name = "canon-symmetric"
    decides = True
    tail_percentile = 87.5
    CHEAPEST = ("C8", "Q3")

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.budget = TINY_CANON_BUDGET if tiny else CANON_BUDGET
        small, large = _families(tiny)
        # Every small family appears three times in a row (relabellings whose
        # certified digests must agree), the two cheapest six times; a large
        # family follows each run of a small one.  Per cycle 18 ops cost less
        # than K4,4 and 19 more, so the p50 falls inside the K4,4 triple, whose
        # search cost hardly depends on the labelling.  In a two-cycle run the
        # p87.5 has ten samples beyond it and falls on the fourth cheapest of
        # 14 exhausted graphs, clear of C12, which certifies just below them.
        self.schedule = []
        for i, fam in enumerate(small):
            self.schedule += [fam] * (6 if fam[0] in self.CHEAPEST else 3)
            if i < len(large):
                self.schedule.append(large[i])
        self.schedule += large[len(small):]
        self.certified_digest = {}

    def items(self, k):
        out = []
        for i, (family, edges) in enumerate(self.schedule):
            rel = gen.relabel(gen.rng_for(self.seed, self.name, k, i), edges)
            out.append(Item((gen.edge_text(rel, weighted=False),), ((gen.node_count(edges), len(edges)),),
                            {"family": family, "edges": rel}))
        return out

    def op(self, item):
        g = graph.parse_edge_list(item.texts[0])
        return signatures.orbit_partition(g), signatures.canonical_labeling(g, budget=self.budget)

    def check(self, item, result, stats):
        part, lab = result
        n = item.sizes[0][0]
        problems = []
        if len(part.classes) != 1:
            problems.append("vertex-transitive graph split into several candidate classes")
        if sorted(lab.order) != list(range(1, n + 1)):
            problems.append("canonical order is not a permutation")
        else:
            w = {(min(u, v), max(u, v)): x for u, v, x in item.extra["edges"]}
            order = lab.order
            form = tuple(
                w.get((min(p, order[k]), max(p, order[k])), 0.0)
                for k in range(1, n) for p in order[:k]
            )
            if form != lab.form:
                problems.append("canonical form does not recompute from its order")
        if lab.certified:
            first = self.certified_digest.setdefault(item.extra["family"], lab.digest())
            if lab.digest() != first:
                problems.append("certified digests of two relabellings differ")
        stats.decide(lab.certified, item.extra["family"])
        stats.expansions += lab.expansions
        return problems

    def config(self):
        return {"budget": self.budget, "families": [f for f, _ in self.schedule]}


class ResistanceQueries(Workload):
    """Point voltage queries against graphs factored once during set-up."""

    name = "resistance-queries"
    # A third of the queries hit the n=2000 graph; p90 sits inside that
    # group rather than on the rare page-fault outliers above it.
    tail_percentile = 90.0
    GRAPHS = [(1000, 6), (1500, 5), (2000, 4)]
    TINY_GRAPHS = [(20, 3), (30, 3)]
    OPS_PER_CYCLE = 30

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.texts, self.sizes = [], []
        for j, (n, d) in enumerate(self.TINY_GRAPHS if tiny else self.GRAPHS):
            rng = gen.rng_for(seed, self.name, "graph", j)
            edges = gen.random_connected(rng, n, n * d // 2, lambda r: round(r.uniform(0.5, 2.0), 6))
            self.texts.append(gen.edge_text(edges))
            self.sizes.append((n, len(edges)))
        self.systems = []

    def setup(self):
        self.systems = []
        for text in self.texts:
            g = graph.parse_edge_list(text)
            self.systems.append((g, solver.build_system(g)))

    def items(self, k):
        out = []
        for i in range(self.OPS_PER_CYCLE):
            j = i % len(self.sizes)
            n, m = self.sizes[j]
            a, b = gen.rng_for(self.seed, self.name, k, i).sample(range(1, n + 1), 2)
            # The op reads no graph text: its graph was parsed during set-up.
            out.append(Item((), ((n, m),), {"graph": j, "pair": (a, b)}))
        return out

    def op(self, item):
        g, system = self.systems[item.extra["graph"]]
        a, b = item.extra["pair"]
        profile = solver.solve_pair(system, a, b)
        currents = solver.pair_currents(g, profile)
        residual = solver.kcl_residual(g, profile)
        return residual, float(profile.v[a - 1] - profile.v[b - 1]), len(currents.currents)

    def check(self, item, result, stats):
        residual, r_ab, n_currents = result
        g, system = self.systems[item.extra["graph"]]
        a, b = item.extra["pair"]
        problems = []
        if not residual <= KCL_LIMIT:
            problems.append("KCL residual above 1e-9")
        if n_currents != g.m:
            problems.append("wrong number of edge currents")
        r_ba = solver.effective_resistance(system, b, a)
        if not (r_ab > 0 and abs(r_ab - r_ba) <= SYMMETRY_LIMIT * max(1.0, abs(r_ab))):
            problems.append("R(a,b) != R(b,a)")
        return problems

    def config(self):
        return {"graphs_n_degree": self.TINY_GRAPHS if self.tiny else self.GRAPHS,
                "ops_per_cycle": self.OPS_PER_CYCLE}


WORKLOADS = {w.name: w for w in (FingerprintLarge, IsoRegistry, CanonSymmetric, ResistanceQueries)}
