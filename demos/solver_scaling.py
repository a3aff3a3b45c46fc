"""How the solver holds up as the player count grows.

The constraint count is n * 2^(n-1), so every added player roughly
triples the work.  From the first solve on, at every size, the solver
never builds the full constraint set: it generates only the violated
rows, which keeps the functional family tractable well past n=12.  Wall times
below are machine-dependent; the shape of the curve is the point.
"""

import time

from reward_transfer import FunctionalParams, build_functional, general_level


def main():
    print(f"{'n':>3} {'constraints':>12} {'seconds':>9} {'level':>12}")
    timings = []
    for n in range(6, 15):
        game = build_functional(FunctionalParams(n, 3.0))
        start = time.perf_counter()
        result = general_level(game, force=True)
        elapsed = time.perf_counter() - start
        timings.append((n, elapsed))
        print(f"{n:>3} {n * (1 << (n - 1)):>12} {elapsed:>9.3f} "
              f"{result.level:>12.6f}")

    print("\ngrowth per added player:")
    for (n0, t0), (n1, t1) in zip(timings, timings[1:]):
        if t0 > 1e-9:
            print(f"  n={n0} -> n={n1}: {t1 / t0:.2f}x")

    print("\nThe level itself keeps shrinking: the more players share the "
          "pot, the\nless self-interest each can keep if cooperation is to "
          "stay dominant.")


if __name__ == "__main__":
    main()
