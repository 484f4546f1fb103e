//! The figure bodies behind [`crate::registry::FIGURES`], one module per
//! figure family. Each entry point is a pure function of `(Scale, jobs)`
//! that returns its tables: it prints nothing and reads neither argv, the
//! environment nor the file system.

pub(crate) mod appb_ecn_prioplus;
pub(crate) mod appd_fluctuation;
pub(crate) mod diag_cardinality;
pub(crate) mod fault_regimes;
pub(crate) mod fig02_buffer_ratio;
pub(crate) mod fig03_motivation;
pub(crate) mod fig07_noise_cdf;
pub(crate) mod fig08_testbed_prios;
pub(crate) mod fig09_fluctuation;
pub(crate) mod fig10_micro;
pub(crate) mod fig11_flow_scheduling;
pub(crate) mod fig12_coflow;
pub(crate) mod fig13_noncongestive;
pub(crate) mod fig14_breakdown;
pub(crate) mod fig16_hpcc_ackprio;
pub(crate) mod fig17_lossy_coflow;
pub(crate) mod fig18_coflow_extra;
pub(crate) mod fig_hyperscale;
pub(crate) mod tab02_start_strategies;
