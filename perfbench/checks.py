"""Correctness checks written from the definitions, independent of the engine.

Answers are compared as sets of ``(relation, label)`` pairs.  The definitional
check never calls the engine's JCC, merge or subsumption code: it re-derives
join consistency, connectivity and maximality from the raw rows the generator
wrote.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

Member = Tuple[str, str]


def labels_of(tuple_set) -> FrozenSet[Member]:
    return frozenset((t.relation_name, t.label) for t in tuple_set)


class DefinitionChecker:
    """Is a tuple set a member of FD(R)?  Join consistent, connected, maximal."""

    def __init__(self, relations):
        self.schema: Dict[str, Tuple[str, ...]] = {}
        self.rows: Dict[Member, Dict[str, object]] = {}
        self.index: Dict[Tuple[str, str, object], Set[str]] = {}
        for name, attributes, rows in relations:
            self.schema[name] = tuple(attributes)
            for label, values in rows:
                row = dict(zip(attributes, values))
                self.rows[(name, label)] = row
                for attribute, value in row.items():
                    if value is not None:
                        self.index.setdefault((name, attribute, value), set()).add(label)
        self._verdicts: Dict[FrozenSet[Member], str] = {}

    def _shares(self, first: str, second: str) -> bool:
        return bool(set(self.schema[first]) & set(self.schema[second]))

    def problem(self, members: FrozenSet[Member]) -> str:
        """``""`` for an FD member, else what is wrong with it (memoised)."""
        verdict = self._verdicts.get(members)
        if verdict is None:
            verdict = self._verdicts[members] = self._problem(members)
        return verdict

    def _problem(self, members: FrozenSet[Member]) -> str:
        if not members:
            return "empty tuple set"
        relations = [name for name, _ in members]
        if len(set(relations)) != len(relations):
            return "two tuples of one relation"
        missing = [m for m in members if m not in self.rows]
        if missing:
            return f"unknown tuples {sorted(missing)}"
        values: Dict[str, object] = {}
        held: Dict[str, object] = {}
        for member in members:
            for attribute, value in self.rows[member].items():
                held[attribute] = value
                if attribute in values or any(
                    attribute in self.schema[other] for other, _ in members if other != member[0]
                ):
                    if value is None:
                        return f"null on shared attribute {attribute}"
                    if values.setdefault(attribute, value) != value:
                        return f"disagreement on {attribute}"
        reached = {relations[0]}
        frontier = [relations[0]]
        while frontier:
            current = frontier.pop()
            for other in relations:
                if other not in reached and self._shares(current, other):
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != len(relations):
            return "not connected"
        for name in self.schema:
            if name in relations:
                continue
            shared = [a for a in self.schema[name] if a in held]
            if not shared:
                continue
            labels = None
            for attribute in shared:
                value = held[attribute]
                if value is None:
                    labels = set()
                    break
                found = self.index.get((name, attribute, value), set())
                labels = set(found) if labels is None else labels & found
                if not labels:
                    break
            if labels:
                return f"not maximal: {name}:{sorted(labels)[0]} can be added"
        return ""


def check_answers(checker: DefinitionChecker, answers: List[FrozenSet[Member]]) -> str:
    """``""`` when every answer is an FD member and no two are equal."""
    if len(set(answers)) != len(answers):
        return "duplicate answers"
    for answer in answers:
        problem = checker.problem(answer)
        if problem:
            return f"{sorted(answer)}: {problem}"
    return ""


def result_set(tuple_sets: Iterable) -> Set[FrozenSet[Member]]:
    return {labels_of(ts) for ts in tuple_sets}
