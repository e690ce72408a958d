#!/usr/bin/env python3
"""End-to-end benchmark: synthetic protocol, rejection curves, PRR ranking.

Generates the "mixed" preset (a gallery with planted look-alike pairs and a
wide probe quality range), fixes the operating point at 10% false positive
identification rate, and asks each uncertainty method to rank probes for
rejection. The summary statistic is the rejection ratio: 1.0 means the
method drops errors as fast as an oracle, 0.0 means no better than random.
"""

import numpy as np

from osruq import preset_config, generate_protocol, run_evaluation

proto = generate_protocol(preset_config("mixed"))
n_probes = len(proto.probes.ids)
print(f"protocol: d={proto.gallery.d} classes={proto.gallery.k} probes={n_probes}")

methods = ("AccScr", "SCF", "PFE", "SF", "GalUE", "HolUE", "HolUE-sum")
report = run_evaluation(proto, target_fpir=0.1, methods=methods)

n_test = report.counts["mated_test"] + report.counts["nonmated_test"]
print(f"\noperating point: tau={report.tau:.4f} "
      f"(target FPIR 0.10, realized {report.base['fpir']:.4f})")
print(f"base errors: fn={report.counts['fn']} fp={report.counts['fp']} "
      f"of {n_test} test probes")

print("\nmethod ranking by rejection ratio (F1 curve):")
order = sorted(methods, key=lambda m: report.methods[m].prr, reverse=True)
for name in order:
    m = report.methods[name]
    print(f"  {name:<10s} prr={m.prr:+.4f}  auc F1={m.auc['F1']:.4f} "
          f"FNIR={m.auc['FNIR']:.4f}")

# A curve is just (fraction rejected, metric) pairs; show the endpoints of
# the best method's FNIR curve to see filtering in action.
best = report.methods[order[0]].curves["FNIR"]
print(f"\n{order[0]} FNIR curve: "
      f"reject 0% -> {best.values[0]:.4f}, "
      f"reject 25% -> {best.values[50]:.4f}, "
      f"reject 50% -> {best.values[-1]:.4f}")

print("\nsame run from the shell:")
print("  osruq gen --config config.json --out bundle/")
print("  osruq eval --bundle bundle/ --out results/ --fpir 0.1")
print("  osruq verify --scope all --out verify.json")
