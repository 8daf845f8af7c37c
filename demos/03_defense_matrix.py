"""Run the bundled 64-scenario matrix under different defense policies.

Reproduces the qualitative evaluation shape: every profile is vulnerable
to all four attacks at baseline, the version-5.1 overwrite rule changes
nothing (the attacks never downgrade strength or MITM protection), and the
cross-transport countermeasures shut the attacks down.
"""

from collections import Counter

from ctkdsim.fixtures import matrix_scenarios
from ctkdsim.policies import PolicySet
from ctkdsim.scenario import run_matrix

scenarios = matrix_scenarios()

configs = [
    ("baseline (no defenses)", None),
    ("5.1 overwrite rule", PolicySet(sig51=True)),
    ("c3: no cross-transport overwrites", PolicySet(c3=True)),
    ("c1+c3", PolicySet(c1=True, c3=True)),
    ("all defenses", PolicySet(sig51=True, c1=True, c2=True, c3=True, c4=True)),
]

for label, policy in configs:
    report = run_matrix(scenarios, policy_override=policy)
    by_strategy = Counter()
    for row in report.rows:
        if row["succeeded"]:
            by_strategy[row["strategy"]] += 1
    rejections = Counter(r["rejection"] for r in report.rows if r["rejection"])
    print(f"{label:<36} {report.succeeded:>2}/{report.total} succeed  "
          f"per-strategy {dict(by_strategy) or '{}'}  "
          f"rejections {dict(rejections) or '{}'}")

print()
print(run_matrix(scenarios).render_text())
