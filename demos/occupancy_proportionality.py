"""How crowded does a cell get? Linearly in its attractiveness.

Every node independently picks a cell with probability proportional to the
cell's integer weight d, so a cell of weight d should hold n*d/W nodes on
average, where W is the total weight of the realized grid.  This script
draws one grid, moves the whole population once, and compares the observed
mean occupancy per weight against that straight line.
"""

import numpy as np

from epimob import EpidemicParams, ReplicateStreams, build_grid, choose_cells


def main() -> None:
    params = EpidemicParams(n=200_000, alpha=2.8, kappa=1.0, tau=1)
    streams = ReplicateStreams.from_seed(2024, 0)
    grid = build_grid(params, streams.grid)
    cells = choose_cells(grid, streams.movement, params.n)

    occupancy = np.bincount(cells, minlength=grid.num_cells)
    top = params.max_attractiveness
    per_weight = np.bincount(grid.attractiveness, weights=occupancy, minlength=top + 1)
    cells_per_weight = np.bincount(grid.attractiveness, minlength=top + 1)

    print(f"grid: {grid.num_cells} cells, weights 2..{top}, total weight {grid.total_weight}")
    print(f"predicted occupancy per unit weight: n/W = {params.n / grid.total_weight:.4f}")
    print()
    print(f"{'weight':>6} {'cells':>7} {'mean occupancy':>15} {'predicted':>10}")
    for d in range(2, top + 1):
        if cells_per_weight[d] == 0:
            continue
        mean_occ = per_weight[d] / cells_per_weight[d]
        predicted = params.n * d / grid.total_weight
        print(f"{d:>6} {cells_per_weight[d]:>7} {mean_occ:>15.2f} {predicted:>10.2f}")

    slope = np.polyfit(
        np.arange(2, top + 1)[cells_per_weight[2:] > 0],
        (per_weight[2:] / np.maximum(cells_per_weight[2:], 1))[cells_per_weight[2:] > 0],
        1,
    )[0]
    print()
    print(f"fitted slope {slope:.4f} vs n/W {params.n / grid.total_weight:.4f}")


if __name__ == "__main__":
    main()
