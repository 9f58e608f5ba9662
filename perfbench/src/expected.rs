//! Per-run digests recorded at the default seed. A digest covers a run's
//! full `SimStats` and its memory image, so any change to what the
//! simulator computes for these kernels changes it. A change that is
//! meant to alter the model must record new digests here, in its own
//! commit, and say why.

use crate::workload::Workload;

/// The seed used when `--seed` is not given. Seed 0 reproduces the
/// kernels of the paper figures.
pub const DEFAULT_SEED: u64 = 0;

/// `(run name, digest)` of every kernel run of `w` at [`DEFAULT_SEED`].
#[must_use]
pub fn digests(w: Workload) -> &'static [(&'static str, u64)] {
    match w {
        Workload::Sharing => &[
            ("BH@G-TSC-RC", 0x7133_3f16_c6e1_88f1),
            ("CC@G-TSC-RC", 0xb902_112e_b11d_35c7),
            ("DLP@G-TSC-RC", 0x74ec_ebe0_73e1_9f5a),
            ("VPR@G-TSC-RC", 0xc1a7_1465_960c_8635),
            ("STN@G-TSC-RC", 0x73c6_7655_4d6b_58e6),
            ("BFS@G-TSC-RC", 0x0d7f_88de_7045_3699),
            ("BH@TC-RC", 0xd79e_af1b_7431_800b),
            ("CC@TC-RC", 0x0dd5_b84f_0dff_8016),
            ("DLP@TC-RC", 0x99b5_ed09_3ac3_1b3c),
            ("VPR@TC-RC", 0xb6d1_fed2_15c1_3e4f),
            ("STN@TC-RC", 0x1961_1f55_9a7e_97b9),
            ("BFS@TC-RC", 0xdb32_e432_5886_63f9),
        ],
        Workload::Streaming => &[
            ("CCP@G-TSC-RC", 0x6cb5_32e0_27d3_e451),
            ("GE@G-TSC-RC", 0xd35e_3be6_d5c6_cdd6),
            ("HS@G-TSC-RC", 0x7a90_99fc_be73_b09f),
            ("KM@G-TSC-RC", 0xa93f_ce66_99e7_22a5),
            ("BP@G-TSC-RC", 0xb3e0_072e_a461_a709),
            ("SGM@G-TSC-RC", 0xdbdc_efcd_847a_53ab),
        ],
        Workload::MultiGpuLossy => &[
            ("BH@G-TSC-RC x4", 0xcf5c_9a1e_d7f6_d508),
            ("CC@G-TSC-RC x4", 0xb84f_2857_cc4a_7b80),
            ("DLP@G-TSC-RC x4", 0xb3d5_0142_8bd5_f46d),
            ("VPR@G-TSC-RC x4", 0x3668_8b21_6da0_ecff),
            ("STN@G-TSC-RC x4", 0x6d2d_d3e5_5179_174e),
            ("BFS@G-TSC-RC x4", 0xda1a_1d33_6fe9_b69e),
        ],
    }
}
