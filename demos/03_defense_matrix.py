"""Which defenses block which attack: the 64-scenario matrix under all 32 defense subsets.

Every profile is vulnerable to all four attacks at baseline (the table at
the end). For each attack the demo prints the smallest defense sets that
block it on every profile: the version-5.1 overwrite rule appears in none
(the attacks never downgrade strength or MITM protection), while single
cross-transport countermeasures suffice.
"""

from ctkdsim.fixtures import matrix_scenarios
from ctkdsim.scenario import minimal_blocking_sets, run_lattice, run_matrix

scenarios = matrix_scenarios()

print(f"Minimal blocking defense sets ({len(scenarios)} scenarios x 32 defense subsets):")
for strategy, sets in minimal_blocking_sets(run_lattice(scenarios)).items():
    print(f"  {strategy:<5} {' or '.join('{' + ','.join(p.enabled_names()) + '}' for p in sets) or 'none'}")

print()
print(run_matrix(scenarios).render_text())
