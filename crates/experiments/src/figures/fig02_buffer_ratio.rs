//! Figure 2: buffer-to-bandwidth ratios of representative switch chips
//! across generations. Static public data (chip datasheets), reproduced as
//! the paper's motivation table: the ratio declines ~2x per generation,
//! squeezing PFC headroom and hence the number of lossless priorities.

use crate::{Cell, Scale, Table};

pub(crate) fn fig02(_: Scale, _: usize) -> Vec<Table> {
    // (chip, year, buffer MB, bandwidth Tbps)
    let chips: &[(&str, u32, f64, f64)] = &[
        ("Trident+ (BCM56840)", 2010, 9.0, 0.64),
        ("Trident2 (BCM56850)", 2013, 12.0, 1.28),
        ("Tomahawk (BCM56960)", 2014, 16.0, 3.2),
        ("Tomahawk2 (BCM56970)", 2016, 42.0, 6.4),
        ("Tomahawk3 (BCM56980)", 2018, 64.0, 12.8),
        ("Tomahawk4 (BCM56990)", 2020, 113.0, 25.6),
    ];
    let mut t = Table::new(
        "fig02",
        "Figure 2: switch buffer/bandwidth ratio by chip generation",
        &["chip", "year", "buffer (MB)", "bandwidth (Tbps)", "MB/Tbps"],
    );
    for &(chip, year, mb, tbps) in chips {
        t.row(vec![
            chip.into(),
            year.into(),
            Cell::num(mb, 0, ""),
            Cell::num(tbps, 2, ""),
            Cell::num(mb / tbps, 1, ""),
        ]);
    }
    t.note(
        "Paper's anchors: Trident2 = 9.4 MB/Tbps, Tomahawk4 = 4.4 MB/Tbps (2.1x smaller);\n\
         Microsoft fit only two lossless priorities on Trident2 (§2.2).",
    );
    vec![t]
}
