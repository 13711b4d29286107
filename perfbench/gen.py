"""Seeded input generators for the three workloads.

Every generator takes the run's seed and nothing else that varies, so one
seed always gives the same inputs.  The shapes are *balanced*: the seed
chooses value names, payloads and (for the star and the served relations)
storage order, but not how many tuples join, so the work per query is the
same under every seed and the run-to-run spread measures the program, not
the luck of the draw.  The program under test receives only the generated
relations (in memory, as a mirror file, or as CSV files).
"""

from __future__ import annotations

import csv
import os
import random
from typing import Dict, List, Tuple

NULL_TOKEN = "⊥"

# firstk-star: a pool of 3-spoke stars, STAR_TUPLES tuples per spoke, each
# hub value held by exactly STAR_TUPLES / STAR_HUBS tuples of every spoke, so
# FD(R) has STAR_HUBS * (STAR_TUPLES / STAR_HUBS) ** 3 members (exponential in
# the spoke count) and the first STAR_K of them are what a query asks for.
STAR_SPOKES = 3
STAR_TUPLES = 200
STAR_HUBS = 20
STAR_POOL = 6
STAR_K = 10

# full-chain: a 4-relation chain R_j(A_{j-1}, A_j, P_j) made of CHAIN_BLOCKS
# disjoint value blocks, CHAIN_TUPLES tuples per relation and block.
CHAIN_RELATIONS = 4
CHAIN_BLOCKS = 5
CHAIN_TUPLES = 3
CHAIN_DOMAIN = 2
CHAIN_NULL_RATE = 0.1

# serve-mixed: a 3-relation chain served from CSV files.
SERVE_RELATIONS = ("Alpha", "Beta", "Gamma")
SERVE_TUPLES = 16
SERVE_DOMAIN = 4
RANKED_SPECS = 60


def star_rows(seed: int, index: int) -> List[Tuple[str, List[str], List[Tuple[str, list]]]]:
    """Relations ``S1..S3(Hub, X_i)`` of pool member ``index``: (name, attributes, rows)."""
    rng = random.Random(f"star-{seed}-{index}")
    per_hub = STAR_TUPLES // STAR_HUBS
    relations = []
    for spoke in range(1, STAR_SPOKES + 1):
        hubs = [f"h{hub}" for hub in range(STAR_HUBS) for _ in range(per_hub)]
        rng.shuffle(hubs)
        rows = [
            (f"s{spoke}_{row + 1}", [hub, f"x{spoke}_{rng.randrange(10 ** 6)}"])
            for row, hub in enumerate(hubs)
        ]
        relations.append((f"S{spoke}", ["Hub", f"X{spoke}"], rows))
    return relations


def chain_rows(seed: int) -> List[Tuple[str, List[str], List[Tuple[str, list]]]]:
    """Relations ``R1..R4(A_{j-1}, A_j, P_j)`` of the full-chain workload.

    The join structure and the storage order are one fixed template (drawn
    once, independently of the seed); the seed renames the values of every
    block and writes fresh payloads.  The time to the first answer depends
    on which tuple is stored first, so the order is not shuffled: every seed
    asks for exactly the same work.
    """
    template = random.Random("chain-template")
    rng = random.Random(f"chain-{seed}")
    names = {}
    for block in range(CHAIN_BLOCKS):
        shuffled = list(range(CHAIN_DOMAIN))
        rng.shuffle(shuffled)
        for value in range(CHAIN_DOMAIN):
            names[(block, value)] = f"b{block}v{shuffled[value]}x{rng.randrange(10 ** 6)}"
    relations = []
    for index in range(1, CHAIN_RELATIONS + 1):
        rows = []
        for block in range(CHAIN_BLOCKS):
            for _ in range(CHAIN_TUPLES):
                left, right = (
                    None if template.random() < CHAIN_NULL_RATE
                    else names[(block, template.randrange(CHAIN_DOMAIN))]
                    for _ in range(2)
                )
                rows.append([left, right, f"p{index}_{rng.randrange(10 ** 6)}"])
        labelled = [(f"r{index}_{row + 1}", values) for row, values in enumerate(rows)]
        relations.append((f"R{index}", [f"A{index - 1}", f"A{index}", f"P{index}"], labelled))
    return relations


def serve_rows(seed: int) -> List[Tuple[str, List[str], List[Tuple[str, list]]]]:
    """Relations ``Alpha(K0, K1, PA)``, ``Beta(K1, K2, PB)``, ``Gamma(K2, K3, PG)``.

    A regular structure: ``Alpha`` and ``Gamma`` hold every key value of
    their shared column equally often, ``Beta`` holds every ``(K1, K2)`` pair
    once, so every tuple of a relation joins alike and FD(R) has
    ``SERVE_DOMAIN ** 3 * (SERVE_TUPLES / SERVE_DOMAIN) ** 2`` members.  The
    seed renames the key values and shuffles the storage order.
    """
    rng = random.Random(f"serve-{seed}")
    per_key = SERVE_TUPLES // SERVE_DOMAIN
    keys = [f"k{value}x{rng.randrange(10 ** 6)}" for value in range(SERVE_DOMAIN)]
    shapes = {
        "Alpha": [(f"a{rng.randrange(10 ** 6)}", keys[v]) for v in range(SERVE_DOMAIN)
                  for _ in range(per_key)],
        "Beta": [(keys[x], keys[y]) for x in range(SERVE_DOMAIN) for y in range(SERVE_DOMAIN)],
        "Gamma": [(keys[v], f"g{rng.randrange(10 ** 6)}") for v in range(SERVE_DOMAIN)
                  for _ in range(per_key)],
    }
    relations = []
    for index, name in enumerate(SERVE_RELATIONS):
        pairs = shapes[name]
        rng.shuffle(pairs)
        prefix = name[0].lower()
        rows = [
            (f"{prefix}{row + 1}", [left, right, f"{prefix}p{rng.randrange(10 ** 6)}"])
            for row, (left, right) in enumerate(pairs)
        ]
        relations.append((name, serve_attributes(index), rows))
    return relations


def serve_attributes(index: int) -> List[str]:
    name = SERVE_RELATIONS[index]
    return [f"K{index}", f"K{index + 1}", f"P{name[0]}"]


def build_database(relations):
    """A ``repro`` Database holding ``relations`` (labels kept as generated)."""
    from repro.relational.database import Database
    from repro.relational.nulls import NULL
    from repro.relational.relation import Relation

    database = Database()
    for name, attributes, rows in relations:
        prefix = rows[0][0].rstrip("0123456789") if rows else None
        relation = Relation(name, attributes, label_prefix=prefix)
        for label, values in rows:
            relation.add([NULL if v is None else v for v in values], label=label)
        database.add_relation(relation)
    return database


def write_csvs(relations, directory: str) -> List[str]:
    """Write one ``<name>.csv`` per relation (``label`` column first, ``⊥`` = null)."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, attributes, rows in relations:
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label"] + list(attributes))
            for label, values in rows:
                writer.writerow([label] + [NULL_TOKEN if v is None else v for v in values])
        paths.append(path)
    return paths


# --------------------------------------------------------------------- #
# serve-mixed traffic: the query-spec catalog and the mutation schedule
# --------------------------------------------------------------------- #
def serve_specs() -> List[dict]:
    """The distinct ``open`` requests connection A draws from, most popular first.

    More distinct specs than the prefix cache's 32 entries, so the Zipf tail
    misses and evicts while the head hits.  The catalog does not depend on
    the seed: which engine is popular decides most of a run's cost, so it is
    fixed, and the seed only varies the draws.  Importance maps name labels
    of the initial relations, which the writer never retracts; the served
    relations are regular, so a label names the same shape under any seed.
    """
    rng = random.Random("serve-specs")
    labels = [
        f"{name[0].lower()}{row + 1}" for name in SERVE_RELATIONS for row in range(SERVE_TUPLES)
    ]
    others: List[dict] = [
        {"engine": "fd"},
        {"engine": "approx", "threshold": 0.8},
        {"engine": "fd", "initialization": "reduced-previous"},
        {"engine": "stream"},
        {"engine": "approx", "threshold": 0.6},
        {"engine": "fd", "use_index": False},
    ] + [{"engine": "approx", "threshold": t} for t in (0.5, 0.7, 0.9, 1.0)]
    specs: List[dict] = []
    for rank in range(len(others) + RANKED_SPECS):
        if rank % 2 == 0 and others:
            specs.append(others.pop(0))
            continue
        chosen = rng.sample(labels, 6)
        importance = {label: float(rng.randrange(1, 100)) for label in chosen}
        specs.append({"engine": "ranked", "importance": importance, "default": 0.5})
    return specs


def zipf_deck(count: int, size: int, exponent: float = 1.1) -> List[int]:
    """``size`` spec ranks in Zipf proportions (largest remainder rounding).

    Connection A draws from shuffled copies of this deck rather than
    independently, so every run serves the same mix of specs and a run's
    cost does not depend on how its draws happened to fall.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    quotas = [size * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(count), key=lambda rank: counts[rank] - quotas[rank])
    for rank in by_remainder[: size - sum(counts)]:
        counts[rank] += 1
    return [rank for rank in range(count) for _ in range(counts[rank])]


class ServeModel:
    """The harness's own model of the served relations.

    Connection B applies each batch to the model as it sends it; the server
    applies batches in the order they arrive, and a refused batch fails the
    run, so at the end the model holds what the server acknowledged.  Labels
    follow the relation's rule for new tuples (prefix plus live count
    plus one, bumped past collisions), so the model can name ingested tuples
    without asking the server.
    """

    def __init__(self, relations):
        self.attributes = {name: list(attributes) for name, attributes, _ in relations}
        self.rows: Dict[str, Dict[str, list]] = {
            name: {label: list(values) for label, values in rows}
            for name, _, rows in relations
        }
        #: Tuples the writer ingested and has not retracted, oldest first.
        self.ingested: List[Tuple[str, str]] = []

    def next_label(self, relation: str) -> str:
        live = self.rows[relation]
        prefix = relation[0].lower()
        suffix = len(live) + 1
        while f"{prefix}{suffix}" in live:
            suffix += 1
        return f"{prefix}{suffix}"

    def apply(self, kind: str, entries: list) -> None:
        for entry in entries:
            relation = entry[0]
            if kind == "ingest":
                label = self.next_label(relation)
                self.rows[relation][label] = list(entry[1])
                self.ingested.append((relation, label))
            elif kind == "retract":
                del self.rows[relation][entry[1]]
                self.ingested.remove((relation, entry[1]))
            else:
                self.rows[relation][entry[1]] = list(entry[2])

    def relations(self):
        return [
            (name, self.attributes[name], list(rows.items()))
            for name, rows in self.rows.items()
        ]


#: Connection B's batches cycle through these kinds in order.
MUTATION_CYCLE = ("ingest", "update", "retract")


def mutation_batch(index: int, rng: random.Random, model: ServeModel) -> Tuple[str, list]:
    """Batch ``index`` of connection B, valid against ``model``.

    The kinds cycle, so every run sends the same mix.  An ingest copies the
    join keys of a random tuple (with a fresh payload), an update rewrites a
    payload, and a retract removes the oldest tuple the writer ingested, so
    the served relations keep their regular shape and size.
    """
    kind = MUTATION_CYCLE[index % len(MUTATION_CYCLE)]
    names = list(model.rows)
    if kind == "retract" and model.ingested:
        name, label = model.ingested[0]
        return "retract", [[name, label]]
    name = rng.choice(names)
    label = rng.choice(sorted(model.rows[name]))
    values = list(model.rows[name][label])
    values[2] = f"{name[0].lower()}p{rng.randrange(10 ** 6)}"
    if kind == "update":
        return "update", [[name, label, values]]
    return "ingest", [[name, values]]
