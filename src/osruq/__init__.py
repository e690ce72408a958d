"""Open-set recognition on unit-sphere embeddings.

vMF gallery posteriors with an explicit out-of-gallery mass, holistic
KL-based uncertainty (normalized components, summed or MLP-calibrated),
baseline confidence scores, risk-controlled rejection metrics, synthetic
protocol generation, a bit-exact bundle format, and independent oracles.
"""

__version__ = "0.1.0"

from .vmf import VmfParams, log_alpha, log_bessel_i, log_c_d, log_surface_area, sample_vmf, vmf_log_pdf
from .gallery import (Gallery, GalleryModel, aggregate_template, cosines, decision_index,
                      equivalent_threshold, galue_score, kappa_for_threshold, log_joint_terms,
                      log_marginal, posterior, softmax)
from .holistic import (CalibrationStats, KlComponents, MlpCalibrator, fit_mlp, fit_stats, holue_sum,
                       kl_components, kl_from_terms, mlp_predict, normalize, scaled_gallery_posterior,
                       self_log_density)
from .baselines import METHOD_NAMES, q_accscr, q_pfe, q_scf, q_sf
from .metrics import (EvalReport, RejectionCurve, class_counts, curve_auc, decision_correct,
                      osr_metrics, outcome_classes, prr, reference_curve_sets, rejection_curves,
                      threshold_for_fpir)
from .protocol import (OsrProtocol, ProbeRecord, ProbeTable, SynthConfig, build_protocol, gen_synthetic,
                       generate_protocol, preset_config)
from .bundle import read_bundle, write_bundle
from .evaluation import run_evaluation, run_evaluations
from .oracle import independent_kl_components, independent_posterior, mc_marginal_check, quad_log_c_d, run_verification
