"""Open-set recognition on unit-sphere embeddings.

vMF gallery posteriors with an explicit out-of-gallery mass, holistic
KL-based uncertainty (normalized components, summed or MLP-calibrated),
baseline confidence scores, risk-controlled rejection metrics, synthetic
protocol generation, a bit-exact bundle format, and independent oracles.
"""

__version__ = "0.1.0"

from .vmf import VmfParams, log_alpha, log_bessel_i, log_c_d, log_surface_area, sample_vmf, vmf_log_pdf
from .gallery import (Decision, Gallery, GalleryModel, Posterior, aggregate_template, cosines,
                      decide, decision_index, equivalent_threshold, galue_score,
                      kappa_for_threshold, log_joint_terms, log_marginal, posterior, softmax)
from .holistic import (CalibrationStats, KlComponents, MlpCalibrator, ProbabilisticEmbedding,
                       TrainingConfig, fit_mlp, fit_stats, holue_sum, kl_components,
                       kl_from_terms, mlp_predict, normalize, scaled_gallery_posterior,
                       self_log_density)
from .baselines import METHOD_NAMES, acc_score, q_accscr, q_pfe, q_scf, q_sf
from .metrics import (EvalReport, ProbeOutcome, RejectionCurve, confusion_counts, curve_auc,
                      osr_metrics, outcome_classes, prr, reference_curve_sets, reference_curves,
                      rejection_curve, rejection_curves, threshold_for_fpir)
from .protocol import OsrProtocol, ProbeRecord, SynthConfig, build_protocol, gen_synthetic, generate_protocol, preset_config
from .bundle import read_bundle, write_bundle
from .evaluation import run_evaluation
from .oracle import independent_posterior, mc_marginal_check, quad_log_c_d, run_verification
