"""Pick a diverse subset of frames with lazy greedy selection.

Generates synthetic frame signatures (three visual "phases" plus noise),
runs lazy greedy under a facility-location objective, and compares the
marginal gains it evaluated with the n + (n - 1) + ... that naive greedy
evaluates over the same rounds.
"""

import numpy as np

from vigil.summarize import FacilityLocation, lazy_greedy_trace, similarity_matrix

N_FRAMES = 90
BUDGET = 6


def phased_signatures(rng: np.random.Generator) -> np.ndarray:
    # three base histograms, each owning a third of the timeline
    bases = rng.dirichlet(np.ones(48), size=3)
    sigs = np.empty((N_FRAMES, 48))
    for i in range(N_FRAMES):
        mix = bases[i * 3 // N_FRAMES] + rng.normal(0.0, 0.004, size=48)
        mix = np.clip(mix, 0.0, None)
        sigs[i] = mix / mix.sum()
    return sigs


def main() -> None:
    rng = np.random.default_rng(7)
    S = similarity_matrix(phased_signatures(rng))

    model = FacilityLocation(S)
    lazy = lazy_greedy_trace(model, BUDGET)

    print(f"{'rank':>4}  {'frame':>5}  {'gain':>8}  {'objective':>9}")
    for step in lazy:
        print(f"{step.rank:>4}  {step.item:>5}  {step.gain:>8.3f}  "
              f"{step.cumulative:>9.3f}")

    # naive greedy evaluates every unpicked frame in every round
    naive_evals = sum(N_FRAMES - r for r in range(len(lazy)))
    print()
    print(f"gain evaluations: lazy {model.gain_evals}, naive would make "
          f"{naive_evals} ({naive_evals / model.gain_evals:.1f}x more)")

    # the first three picks should land one per phase
    phases = sorted({s.item * 3 // N_FRAMES for s in lazy[:3]})
    print(f"timeline phases covered by the first 3 picks: {phases}")


if __name__ == "__main__":
    main()
