#!/usr/bin/env python3
"""Cost curve of the bounded genuine-lcs search.

Runs find_lcs at increasing height bounds on one algebra and prints the
candidates examined, wall time, and verdict per level.  Useful for judging
how far the semi-decision can be pushed before the enumeration blows up.

On a nilpotent algebra whose global twisted Pfaffian Pf(d eta - theta ^ eta)
vanishes identically, the curve is flat: no candidate but theta = 0 is
decided, the count grows as (V + 1)^b1 and the time per level stays at a
few milliseconds (1-2 ms per level for (0,0,0,0,12,34) up to height 4,
279841 candidates, on a 2-CPU Xeon with Python 3.11).  The enumeration
cost shows where that Pfaffian is nonzero, and on algebras that are not
nilpotent.
"""

import argparse
import time

from nilforms import (
    SearchConfig,
    find_lcs,
    format_form,
    format_salamon,
    get_example,
    names,
    parse_salamon,
)


def load(spec):
    if spec in names():
        return get_example(spec).algebra
    return parse_salamon(spec)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("algebra",
                        help="catalog name or structure tuple like (0,0,12,13)")
    parser.add_argument("--max-height", type=int, default=3)
    parser.add_argument("--max-candidates", type=int, default=None,
                        help="per-level cap on candidates examined")
    args = parser.parse_args(argv)

    algebra = load(args.algebra)
    print(f"algebra {format_salamon(algebra)}  dim {algebra.dim}")
    for height in range(1, args.max_height + 1):
        config = SearchConfig(height=height,
                              max_candidates=args.max_candidates)
        start = time.perf_counter()
        result = find_lcs(algebra, config)
        elapsed = time.perf_counter() - start
        line = (f"height {height}: {result.examined} candidates, "
                f"{elapsed:.3f}s, {result.genuine_status}")
        if result.genuine_witness is not None:
            omega, theta = result.genuine_witness
            line += (f"  omega = {format_form(omega)}, "
                     f"theta = {format_form(theta)}")
        print(line)
        if result.genuine_witness is not None:
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
