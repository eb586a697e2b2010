"""Named generator sets, their verification, and the shared construction
protocol of the three pipelines."""

from __future__ import annotations

import random

from .projector import jacobian_rank, sample_regular_point, verify_invariance


class GeneratorSet:
    """Ordered named generators of an invariant field, plus metadata."""

    def __init__(self, entries, dset, metadata=None, report=None):
        self.entries = entries  # list of (name, LocElem)
        self.dset = dset  # DenominatorSet
        self.metadata = {} if metadata is None else metadata
        self.report = {"checks": []} if report is None else report

    @property
    def elements(self):
        return [e for _, e in self.entries]

    def __len__(self):
        return len(self.entries)

    def all_verified(self):
        return all(c["status"] == "pass" for c in self.report["checks"])

    def to_json(self):
        # every polynomial is formatted once, for its JSON and its text
        dset, gen_texts = self.dset.formatted()
        generators = []
        for name, e in self.entries:
            data, text = e.formatted(gen_texts)
            generators.append({"name": name, "element": data, "text": text})
        return {
            "generators": generators,
            "denominator_set": dset,
            "metadata": self.metadata,
            "verification": self.report,
        }


class Construction:
    """Protocol shared by the adjoint, rep and conj constructions.

    A subclass sets `dset` and `projector` and supplies
    `simple_derivations()` (the family that defines invariance) and
    `_generators()`, which returns its named entries and metadata.
    """

    def generator_set(self, verify=True, seed=0):
        entries, metadata = self._generators()
        gs = GeneratorSet(entries, self.dset, metadata=metadata)
        if verify:
            gs.report = self.verify(gs, seed=seed)
        return gs

    def verify(self, gs, seed=0):
        """Exact invariance of every entry under the simple derivations,
        then the Jacobian rank at a regular point drawn with `seed`."""
        family = self.simple_derivations()
        checks = []
        for name, elem in gs.entries:
            rep = verify_invariance(elem, family)
            status = "pass" if all(
                c["status"] == "pass" for c in rep["checks"]
            ) else "fail"
            entry = {"name": f"invariance:{name}", "status": status}
            if status == "fail":
                entry["residues"] = [
                    c for c in rep["checks"] if c["status"] == "fail"
                ]
            checks.append(entry)
        point = sample_regular_point(self.dset, random.Random(seed))
        r = jacobian_rank(self.dset, gs.elements, point)
        checks.append(
            {
                "name": "jacobian_rank",
                "status": "pass" if r == len(gs) else "fail",
                "rank": r,
                "expected": len(gs),
            }
        )
        return {"checks": checks}
