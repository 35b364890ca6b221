// Walkthrough of the paper's pedagogical example (Program 3, the Mersha &
// Dempe instance behind Fig. 1): a two-variable linear bi-level problem
// whose inducible region is DISCONTINUOUS because the follower ignores the
// leader's constraints.
//
//   leader:   min F(x,y) = -x - 2y   s.t. 2x - 3y >= -12,  x + y <= 14
//   follower: min f(y)   = -y        s.t. -3x + y <= -3,   3x + y <= 30
//
// At x = 6 the rational follower picks y = 12 (its feasible maximum), which
// violates the leader's first constraint — so x = 6 yields NO feasible
// bi-level solution, even though the naive pair (6, 8) looks great.

#include <cstdio>
#include <exception>

#include "carbon/bilevel/linear.hpp"

int main() try {
  using namespace carbon::bilevel;
  const LinearBilevel p = program3();

  std::printf("Scanning the leader's decision x and the follower's rational "
              "reaction:\n\n");
  std::printf("%6s %12s %12s %16s\n", "x", "reaction y", "F(x,y)",
              "UL-feasible?");
  for (double x = 0.0; x <= 14.0; x += 1.0) {
    const auto y = rational_reaction(p, x);
    if (!y) {
      std::printf("%6.1f %12s %12s %16s\n", x, "-", "-", "LL infeasible");
      continue;
    }
    const bool ok = upper_feasible(p, x, *y);
    std::printf("%6.1f %12.2f %12.2f %16s\n", x, *y, p.upper_objective(x, *y),
                ok ? "yes" : "NO  <-- hole");
  }

  // The trap discussed in the paper.
  const double x_trap = 6.0;
  const auto y_trap = rational_reaction(p, x_trap);
  std::printf("\nAt x = %.0f the follower's rational reaction is y = %.0f.\n",
              x_trap, *y_trap);
  std::printf("Naively pairing x = 6 with y = 8 satisfies the leader "
              "(F = %.0f),\nbut the follower would never play y = 8: "
              "f(8) = %.0f > f(12) = %.0f.\n",
              p.upper_objective(6, 8), p.lower_objective(8),
              p.lower_objective(12));
  std::printf("The pair (6, 12) violates 2x - 3y >= -12 "
              "(2*6 - 3*12 = %.0f < -12): x = 6 is a hole in the inducible "
              "region.\n\n",
              2 * 6.0 - 3 * 12.0);

  // Reference solve over a fine grid.
  const GridSolveResult grid = solve_by_grid(p, 14001);
  std::printf("Grid scan (%zu feasible, %zu holes, %zu LL-infeasible):\n",
              grid.feasible_points, grid.infeasible_points,
              grid.empty_points);
  if (grid.best) {
    std::printf("Best bi-level solution: x = %.4f, y = %.4f, F = %.4f\n",
                grid.best->x, grid.best->y, grid.best->upper_value);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "linear_bilevel: %s\n", e.what());
  return 2;
}
