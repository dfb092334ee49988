"""Regenerate the reference tables the workloads check against.

``reference_kappa.json`` holds kappa^2 for D = 1..100 (pair_dephasing);
``reference_monomial.json`` holds the infinite-lattice eigenrate of every
shape in the monomial pool (monomial_rates).  Both are computed with the
library's own lattice sum at radius 180, three times the workloads' radius,
where the truncation error is far below the 1e-3 tolerance the workloads
request.  One value takes one to three seconds, so both tables together take
about four minutes.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import astuple

from common import add_src_path, check_imported, pin_threads

REFERENCE_RADIUS = 180.0
REFERENCE_TOLERANCE = 1e-3
SEPARATIONS = range(1, 101)


def write_table(path, table) -> None:
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def kappa_table(cc, start) -> dict:
    values, bounds = {}, {}
    for d in SEPARATIONS:
        result = cc.analytics.kappa_sq(
            float(d), cutoff_radius=REFERENCE_RADIUS, tolerance=REFERENCE_TOLERANCE
        )
        values[str(d)] = float(result.kappa_sq)
        bounds[str(d)] = float(result.tail_bound)
        print(f"D={d} kappa_sq={result.kappa_sq!r} ({time.perf_counter() - start:.0f} s)",
              file=sys.stderr)
    return {"radius": REFERENCE_RADIUS, "tolerance": REFERENCE_TOLERANCE,
            "kappa_sq": values, "tail_bound": bounds}


def monomial_table(cc, start) -> dict:
    from workloads import MonomialRates, placed_sites

    workload = MonomialRates(0)
    gen = workload.build_fixtures(cc)
    rates = []
    for k, shape in enumerate(workload.pool):
        create, annihilate = placed_sites(shape, (0, 0, 0), workload.EXTENT)
        rates.append(float(cc.dynamics.adjoint_coefficient(
            create, annihilate, gen, site_mode="infinite",
            cutoff_radius=REFERENCE_RADIUS, tolerance=REFERENCE_TOLERANCE,
        )))
        print(f"shape {k} rate={rates[-1]!r} ({time.perf_counter() - start:.0f} s)",
              file=sys.stderr)
    return {"radius": REFERENCE_RADIUS, "tolerance": REFERENCE_TOLERANCE, "xi": workload.XI,
            "shapes": [astuple(shape) for shape in workload.pool], "infinite_rate": rates}


def main() -> int:
    pin_threads()
    add_src_path()
    import ccgrav
    from workloads import MonomialRates, PairDephasing

    check_imported(ccgrav)
    start = time.perf_counter()
    write_table(PairDephasing.REFERENCE_PATH, kappa_table(ccgrav, start))
    write_table(MonomialRates.REFERENCE_PATH, monomial_table(ccgrav, start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
