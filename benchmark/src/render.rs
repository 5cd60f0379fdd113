//! Rendering of report rows into the tables a user reads. Part of every
//! analysis round: a report nobody renders is not the work the CLI does.

use memgaze_analysis::{
    fmt_f3, fmt_pct, fmt_si, FunctionRow, Heatmap, IntervalRow, LocalityPoint, Log2Histogram,
    RegionRow, Table, WindowPoint,
};

pub fn function_table(rows: &[FunctionRow]) -> String {
    let mut t = Table::new("functions", &["Function", "F", "dF", "Fstr%", "A", "D"]);
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            fmt_si(r.f_hat_bytes),
            fmt_f3(r.delta_f),
            fmt_pct(r.f_str_pct),
            fmt_si(r.accesses_decompressed),
            fmt_f3(r.mean_d),
        ]);
    }
    t.render()
}

pub fn interval_table(rows: &[IntervalRow]) -> String {
    let mut t = Table::new("intervals", &["Interval", "F", "dF", "D", "A"]);
    for r in rows {
        t.push_row(vec![
            r.interval.to_string(),
            fmt_si(r.f_hat_bytes),
            fmt_f3(r.delta_f),
            fmt_f3(r.mean_d),
            fmt_si(r.accesses_decompressed),
        ]);
    }
    t.render()
}

pub fn region_table(rows: &[RegionRow]) -> String {
    let mut t = Table::new(
        "regions",
        &["Region", "D", "maxD", "blocks", "A", "%", "code"],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:#x}-{:#x}", r.range.0, r.range.1),
            fmt_f3(r.reuse_d),
            r.max_d.to_string(),
            r.blocks.to_string(),
            r.accesses.to_string(),
            fmt_pct(r.pct_of_total),
            r.code.join(","),
        ]);
    }
    t.render()
}

pub fn histogram_table(h: &Log2Histogram) -> String {
    let mut t = Table::new("reuse distance", &["bin", "count"]);
    for (bin, count) in h.iter() {
        t.push_row(vec![bin.to_string(), count.to_string()]);
    }
    t.render()
}

pub fn window_table(points: &[WindowPoint]) -> String {
    let mut t = Table::new("windows", &["point"]);
    for p in points {
        t.push_row(vec![format!("{p:?}")]);
    }
    t.render()
}

pub fn locality_table(points: &[LocalityPoint]) -> String {
    let mut t = Table::new("locality", &["point"]);
    for p in points {
        t.push_row(vec![format!("{p:?}")]);
    }
    t.render()
}

pub fn heatmaps(maps: &[(Heatmap, Heatmap)]) -> String {
    maps.iter()
        .map(|(acc, reuse)| format!("{}\n{}\n", acc.render_ascii(), reuse.render_ascii()))
        .collect()
}
