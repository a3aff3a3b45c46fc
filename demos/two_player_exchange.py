"""A first walk through reward exchange on the two-player base games.

Each base game tempts a player away from cooperation in its own way.
An exchange contract (everyone keeps a share s, the rest is split
evenly among the others) removes the temptation once s is low enough;
the interesting number is the largest s that still works.
"""

import numpy as np

from reward_transfer import (ActionProfile, BaseGame, BaseGameParams,
                             GraphKind, apply_transfers, build_graphical,
                             check_dominance, classify_dilemma,
                             exchange_matrix, symmetrical_level,
                             verify_resolution)


def show(game, name):
    print(f"\n=== {name} ===")
    print("payoffs (rows CC, DC, CD, DD):")
    print(game.payoffs)
    print("classification:", classify_dilemma(game).kind.value)

    result = symmetrical_level(game)
    print(f"largest self-interest share that still resolves it: "
          f"{result.level:.6g}")

    transformed = apply_transfers(game, result.matrix)
    print("post-transfer payoffs:")
    print(np.round(transformed.payoffs, 6))
    report = check_dominance(transformed, ActionProfile.all_cooperate(game.n))
    print("cooperation weakly dominant now?", report.weakly_dominant)

    # one notch greedier and the contract stops working
    slightly_greedy = exchange_matrix(game.n, min(1.0, result.level + 0.01))
    broken = verify_resolution(game, slightly_greedy)
    print(f"at s = {result.level + 0.01:.6g} instead:",
          "still fine" if broken.weakly_dominant else
          f"breaks ({broken.violation_count} profitable deviations)")


def main():
    for base, label in [
        (BaseGame.PRISONERS_DILEMMA, "Prisoner's Dilemma (c=3, d=1)"),
        (BaseGame.CHICKEN, "Chicken (c=3, d=1)"),
        (BaseGame.STAG_HUNT, "Stag Hunt (c=3, d=1)"),
    ]:
        params = BaseGameParams(base, 3.0, 1.0)
        game = build_graphical(GraphKind.CYCLICAL, params, 2)
        show(game, label)

    print("\nThe dilemma share thresholds: 3/4 for the Prisoner's Dilemma "
          "and 2/3 for the\nother two. Defection is a milder temptation in "
          "Chicken and Stag Hunt (it only\npays against some co-actions), "
          "but the welfare damage per defection is larger\nrelative to the "
          "private gain, so players must pool more to stay honest.")


if __name__ == "__main__":
    main()
