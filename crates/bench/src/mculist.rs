//! Shared implementation of the `mculist` subcommands, so the golden
//! tests pin the exact bytes the binary prints.

use atum_core::{PatchSet, PatchStyle, Tracer};
use atum_machine::{EngineTier, Machine, MemLayout};
use atum_mclint::atomicity::{self, StatePartition};
use atum_mclint::cost::{Bounds, RefProfile};
use atum_mclint::{cost, error_count, lint, lowering, svx, Finding, Pass};
use atum_os::kernel::{self, KernelOptions};
use atum_os::TbitMode;
use atum_ucode::stock;
use std::fmt::Write as _;

/// The `mculist patches` report: the ATUM patch region as a listing.
pub fn patches_report() -> String {
    let mut cs = stock::build();
    let ps = PatchSet::install(&mut cs).expect("install on a fresh stock store cannot fail");
    format!(
        ";; ATUM patch region: {} micro-words\n{}",
        ps.words(),
        cs.listing(cs.stock_len(), cs.len())
    )
}

/// One verified artifact and its findings.
pub struct Subject {
    /// What was verified (e.g. `patched store (scratch style)`).
    pub title: String,
    /// The findings, sorted the way the passes emit them.
    pub findings: Vec<Finding>,
    /// For control-store subjects: the register/memory state partition
    /// the atomicity pass extracted (surfaced in `--format json`).
    pub partition: Option<StatePartition>,
}

/// Result of running the full static-verification suite.
pub struct VerifyReport {
    /// Every artifact verified, with its findings.
    pub subjects: Vec<Subject>,
    /// Total findings across all subjects.
    pub findings: usize,
    /// Error-severity findings.
    pub errors: usize,
}

/// Runs every verifier pass over every artifact this repository builds:
/// the stock control store, the patched store in both styles, the MOSS
/// kernel in both T-bit modes, and every standard workload image.
pub fn verify() -> VerifyReport {
    verify_pass(None)
}

/// [`verify`] restricted to a single pass (`mculist verify --pass NAME`).
///
/// `None` runs everything. `Some(pass)` runs just that pass over the
/// subjects it applies to: the control-store passes see the stock and
/// both patched stores; [`Pass::Svx`] sees the kernel and workload
/// images. The state partition is attached to control-store subjects
/// whenever the atomicity pass runs.
pub fn verify_pass(pass: Option<Pass>) -> VerifyReport {
    let mut subjects = Vec::new();
    let store_pass = !matches!(pass, Some(Pass::Svx));
    let image_pass = matches!(pass, None | Some(Pass::Svx));
    let partition_pass = matches!(pass, None | Some(Pass::Atomicity));

    if store_pass {
        let run = |cs: &_| match pass {
            None => lint::run(cs),
            Some(p) => lint::run_pass(cs, p),
        };
        let cs = stock::build();
        subjects.push(Subject {
            title: "stock control store".into(),
            findings: run(&cs),
            partition: partition_pass.then(|| atomicity::partition(&cs)),
        });

        for (style, name) in [
            (PatchStyle::Scratch, "patched store (scratch style)"),
            (PatchStyle::Spill, "patched store (spill style)"),
        ] {
            let mut cs = stock::build();
            PatchSet::install_with_style(&mut cs, style).expect("install");
            subjects.push(Subject {
                title: name.into(),
                findings: run(&cs),
                partition: partition_pass.then(|| atomicity::partition(&cs)),
            });
        }
    }

    if image_pass {
        for (tbit, name) in [
            (TbitMode::Ignore, "MOSS kernel (tbit ignored)"),
            (TbitMode::LogPc, "MOSS kernel (tbit software trace)"),
        ] {
            let opts = KernelOptions {
                tbit,
                ..KernelOptions::default()
            };
            let img = atum_asm::assemble(&kernel::source(&opts)).expect("kernel assembles");
            subjects.push(Subject {
                title: name.into(),
                findings: svx::check_image(&img, svx::ImageKind::Kernel),
                partition: None,
            });
        }

        for w in atum_workloads::suite_standard() {
            let src = format!(".org {:#x}\n{}\n", atum_os::USER_BASE_VA, w.source);
            let img = atum_asm::assemble(&src).expect("workload assembles");
            subjects.push(Subject {
                title: format!("workload '{}'", w.name),
                findings: svx::check_image(&img, svx::ImageKind::User),
                partition: None,
            });
        }
    }

    let findings = subjects.iter().map(|s| s.findings.len()).sum();
    let errors = subjects.iter().map(|s| error_count(&s.findings)).sum();
    VerifyReport {
        subjects,
        findings,
        errors,
    }
}

impl VerifyReport {
    /// The human-readable report, one section per subject.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.subjects {
            if s.findings.is_empty() {
                let _ = writeln!(out, "{:<42} ok", s.title);
            } else {
                let _ = writeln!(out, "{:<42} {} finding(s)", s.title, s.findings.len());
                for f in &s.findings {
                    let _ = writeln!(out, "    {f}");
                }
            }
        }
        let _ = writeln!(
            out,
            "\nverify: {} finding(s), {} error(s)",
            self.findings, self.errors
        );
        out
    }

    /// The machine-readable report (`--format json`). Control-store
    /// subjects carry the atomicity pass's state partition under a
    /// `"partition"` key whenever that pass ran.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"subjects\": [\n");
        for (i, s) in self.subjects.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"title\": \"{}\", \"findings\": [",
                json_escape(&s.title)
            );
            for (j, f) in s.findings.iter().enumerate() {
                let _ = write!(out, "{}{}", if j > 0 { ", " } else { "" }, finding_json(f));
            }
            let _ = write!(out, "]");
            if let Some(p) = &s.partition {
                let _ = write!(out, ", \"partition\": {}", p.to_json());
            }
            let _ = write!(out, "}}");
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < self.subjects.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "  ],\n  \"findings\": {},\n  \"errors\": {}\n}}\n",
            self.findings, self.errors
        );
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"pass\": \"{}\", \"severity\": \"{}\", \"symbol\": \"{}\", \
         \"addr\": {}, \"message\": \"{}\"}}",
        f.pass,
        f.severity,
        json_escape(&f.symbol),
        f.addr,
        json_escape(&f.message)
    )
}

// ── `mculist cost`: the static slowdown-band gate ────────────────────

/// The paper's slowdown band: traced runs are 10–20× slower.
const BAND: (f64, f64) = (10.0, 20.0);

/// Result of the cost analysis and its gates. Everything in it is a
/// function of the microcode and the cycle model, so both forms are
/// golden-pinned.
pub struct CostReport {
    /// Per-hook bounds, aggregate dilation vs the band, and the
    /// simulated tight check, per patch style (`golden/cost.txt`).
    pub report: String,
    /// Machine-readable form of the same (`--format json`,
    /// `golden/cost.json`).
    pub json: String,
    /// Lint findings from the cost and lowering passes.
    pub findings: usize,
    /// Error findings plus failed gates.
    pub errors: usize,
}

impl CostReport {
    /// What `mculist cost` prints: the report and its closing count.
    pub fn render(&self) -> String {
        format!(
            "{}cost: {} finding(s), {} error(s)\n",
            self.report, self.findings, self.errors
        )
    }
}

/// The bench workload (`list_chase`, syscalls stubbed out), which the
/// tight check runs untraced and traced on both engine tiers.
fn bench_image() -> atum_asm::Image {
    let w = atum_workloads::list_chase("bench", 256, 4_000);
    let src = w
        .source
        .replace("chmk    #1", "nop")
        .replace("chmk    #0", "halt");
    atum_asm::assemble(&format!(".org 0x1000\n{src}\n")).expect("bench program")
}

fn bench_machine(img: &atum_asm::Image) -> Machine {
    let mut m = Machine::new(MemLayout::small());
    for (a, b) in img.segments() {
        m.write_phys(*a, b).expect("image fits in memory");
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(img.symbol("start").expect("bench program has a start"));
    m
}

fn fmt_bounds(b: Option<Bounds>) -> String {
    match b {
        Some(b) => b.to_string(),
        None => "unbounded".into(),
    }
}

fn json_bounds(b: Option<Bounds>) -> String {
    match b {
        Some(b) => format!("[{}, {}]", b.min, b.max),
        None => "null".into(),
    }
}

/// Runs the cost pass over both patch styles, gates the aggregate
/// dilation against the paper band, and re-runs the bench workload on
/// the simulator to check the bound *contains the actual added cycles*.
pub fn cost_report() -> CostReport {
    let mut stat = String::new();
    let mut json = String::from("{\n");
    let mut findings_total = 0;
    let mut errors = 0;

    // The standard-mix reference profile: the bench workload's
    // architectural reference counts, measured once untraced. This is
    // simulator-deterministic, so everything derived from it is
    // golden-pinnable.
    let img = bench_image();
    let mut base = bench_machine(&img);
    base.run(u64::MAX);
    let base_cycles = base.cycles();
    let bc = *base.counts();
    let profile = RefProfile {
        ifetch: bc.ifetch,
        data_reads: bc.data_reads,
        data_writes: bc.data_writes,
        exceptions: 0,
        ctx_switches: 0,
    };
    let _ = writeln!(
        stat,
        "cost: static micro-cycle analysis of the ATUM patches\n\
         reference profile (untraced bench run): {} insns, {} ifetch, \
         {} reads, {} writes, {} cycles\n",
        base.insns(),
        bc.ifetch,
        bc.data_reads,
        bc.data_writes,
        base_cycles
    );
    let _ = write!(
        json,
        "  \"profile\": {{\"insns\": {}, \"ifetch\": {}, \"data_reads\": {}, \
         \"data_writes\": {}, \"cycles\": {}}},\n  \"styles\": {{\n",
        base.insns(),
        bc.ifetch,
        bc.data_reads,
        bc.data_writes,
        base_cycles
    );

    for (si, (style, name)) in [
        (PatchStyle::Scratch, "scratch"),
        (PatchStyle::Spill, "spill"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cs = stock::build();
        PatchSet::install_with_style(&mut cs, style).expect("install");
        let rep = cost::analyze(&cs);
        let mut fs = rep.findings.clone();
        fs.extend(lowering::check(&cs));
        findings_total += fs.len();
        errors += error_count(&fs);

        let _ = writeln!(stat, "patched store ({name} style)");
        for f in &fs {
            let _ = writeln!(stat, "    {f}");
        }
        let _ = write!(json, "    \"{name}\": {{\n      \"hooks\": [\n");
        for (hi, h) in rep.hooks.iter().enumerate() {
            let dil = h.dilation();
            let _ = writeln!(
                stat,
                "  {:<18} {:<12} stock {:<9} added on {:<9} off {:<3} dilation {}",
                h.hook.desc,
                h.symbol,
                fmt_bounds(h.stock),
                format!("+{}", fmt_bounds(h.added_on)),
                format!("+{}", fmt_bounds(h.added_off)),
                match dil {
                    Some((lo, hi)) => format!("{lo:.2}..{hi:.2}"),
                    None => "-".into(),
                },
            );
            let _ = writeln!(
                json,
                "        {{\"slot\": \"{}\", \"symbol\": \"{}\", \"stock\": {}, \
                 \"added_on\": {}, \"added_off\": {}, \"dilation\": {}}}{}",
                json_escape(&h.hook.desc),
                json_escape(&h.symbol),
                json_bounds(h.stock),
                json_bounds(h.added_on),
                json_bounds(h.added_off),
                match dil {
                    Some((lo, hi)) => format!("[{lo:.4}, {hi:.4}]"),
                    None => "null".into(),
                },
                if hi + 1 < rep.hooks.len() { "," } else { "" },
            );
        }
        let _ = writeln!(json, "      ],");

        // Gate: aggregate dilation vs the paper band. The scratch style
        // must land inside it; the spill style's slow stores put it
        // above the band (EXPERIMENTS.md, known deviation 1), so it
        // gates only on the floor.
        let agg = rep.aggregate_dilation(&profile);
        let band_ok = match (style, agg) {
            (PatchStyle::Scratch, Some((lo, hi))) => lo >= BAND.0 && hi <= BAND.1,
            (PatchStyle::Spill, Some((lo, _))) => lo >= BAND.0,
            (_, None) => false,
        };
        if !band_ok {
            errors += 1;
        }
        let agg_str = match agg {
            Some((lo, hi)) => format!("{lo:.2}..{hi:.2}"),
            None => "unbounded".into(),
        };
        let band_desc = match style {
            PatchStyle::Scratch => format!("within {:.0}..{:.0}x band", BAND.0, BAND.1),
            PatchStyle::Spill => {
                format!("above {:.0}x band floor (above band: slow stores)", BAND.0)
            }
        };
        let _ = writeln!(
            stat,
            "  aggregate dilation (standard mix): {agg_str}  {band_desc}: {}",
            if band_ok { "ok" } else { "FAIL" }
        );

        // Gate: the tight deterministic check, run on both engine
        // tiers. Each tier re-runs the same workload traced; the added
        // simulated cycles must be identical across tiers and land
        // inside the statically proved interval, and the architectural
        // reference counts must be untouched (transparency,
        // dynamically).
        let mut added_by_tier = Vec::new();
        let mut transparent = true;
        for (tier, tname) in [
            (EngineTier::Reference, "reference"),
            (EngineTier::Fast, "fast"),
        ] {
            let mut m = bench_machine(&img);
            m.set_engine_tier(tier);
            let tracer = Tracer::attach_with_style(&mut m, style).expect("attach");
            tracer.set_enabled(&mut m, true);
            m.run(u64::MAX);
            let tc = *m.counts();
            transparent &= (tc.ifetch, tc.data_reads, tc.data_writes)
                == (bc.ifetch, bc.data_reads, bc.data_writes)
                && tc.exceptions == bc.exceptions;
            added_by_tier.push((tname, m.cycles().saturating_sub(base_cycles)));
        }
        let added = added_by_tier[0].1;
        let tiers_agree = added_by_tier.iter().all(|&(_, a)| a == added);
        let bound = rep.added_interval(&profile);
        let tight_ok =
            transparent && tiers_agree && bound.is_some_and(|b| added >= b.min && added <= b.max);
        if !tight_ok {
            errors += 1;
        }
        let _ = writeln!(
            stat,
            "  simulated traced run: +{added} cycles ({}), static bound {}: {}",
            if tiers_agree {
                "reference/fast agree"
            } else {
                "TIERS DISAGREE"
            },
            fmt_bounds(bound),
            if tight_ok { "ok" } else { "FAIL" }
        );
        let _ = writeln!(
            stat,
            "  reference counts unchanged under tracing: {}\n",
            if transparent { "ok" } else { "FAIL" }
        );

        let _ = write!(
            json,
            "      \"aggregate_dilation\": {},\n      \"band_ok\": {band_ok},\n      \
             \"simulated_added_cycles\": {added},\n      \"tier_added_cycles\": {{{}}},\n      \
             \"tiers_agree\": {tiers_agree},\n      \"added_bound\": {},\n      \
             \"tight_ok\": {tight_ok},\n      \"max_dilation\": {},\n      \
             \"findings\": [",
            match agg {
                Some((lo, hi)) => format!("[{lo:.4}, {hi:.4}]"),
                None => "null".into(),
            },
            added_by_tier
                .iter()
                .map(|(t, a)| format!("\"{t}\": {a}"))
                .collect::<Vec<_>>()
                .join(", "),
            json_bounds(bound),
            match rep.max_dilation() {
                Some(d) => format!("{d:.4}"),
                None => "null".into(),
            },
        );
        for (j, f) in fs.iter().enumerate() {
            let _ = write!(json, "{}{}", if j > 0 { ", " } else { "" }, finding_json(f));
        }
        let _ = writeln!(json, "]\n    }}{}", if si == 0 { "," } else { "" });
    }
    json.push_str("  }\n}\n");

    CostReport {
        report: stat,
        json,
        findings: findings_total,
        errors,
    }
}

// ── `mculist trace`: segment trace file inspection ───────────────────

/// One segment's row in a `mculist trace info` report.
pub struct TraceSegmentInfo {
    /// Segment header as stored in the file.
    pub header: atum_core::SegmentHeader,
    /// Encoded payload plus header bytes.
    pub encoded_bytes: u64,
    /// I/D reference records in the segment.
    pub refs: u64,
}

/// The `mculist trace info` report: per-segment headers plus the
/// file-level compression statistics.
pub struct TraceInfoReport {
    /// The inspected file path (as given).
    pub path: String,
    /// Per-segment rows, in file order.
    pub segments: Vec<TraceSegmentInfo>,
    /// Total records across segments.
    pub records: u64,
    /// Total I/D references.
    pub refs: u64,
    /// File size in bytes.
    pub file_bytes: u64,
}

impl TraceInfoReport {
    /// Raw size of the records in the 8-byte in-buffer form.
    pub fn raw_bytes(&self) -> u64 {
        self.records * 8
    }

    /// Raw-to-encoded compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            self.raw_bytes() as f64 / self.file_bytes as f64
        }
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace file: {}", self.path);
        let _ = writeln!(
            out,
            "{:>4}  {:>10}  {:>10}  {:>12}  {:>4}  {:>6}  {:>10}",
            "seg", "records", "refs", "cycle", "pid", "mode", "bytes"
        );
        for (i, s) in self.segments.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4}  {:>10}  {:>10}  {:>12}  {:>4}  {:>6}  {:>10}",
                i,
                s.header.records,
                s.refs,
                s.header.cycle,
                s.header.pid,
                if s.header.kernel { "kern" } else { "user" },
                s.encoded_bytes,
            );
        }
        let _ = writeln!(
            out,
            "\n{} segment(s), {} record(s) ({} refs)\n\
             encoded {} bytes vs {} raw ({:.2} bytes/record, {:.2}x compression)",
            self.segments.len(),
            self.records,
            self.refs,
            self.file_bytes,
            self.raw_bytes(),
            self.file_bytes as f64 / self.records.max(1) as f64,
            self.compression_ratio(),
        );
        out
    }

    /// The machine-readable report (`--format json`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"path\": \"{}\",", json_escape(&self.path));
        let _ = writeln!(out, "  \"segments\": [");
        for (i, s) in self.segments.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"records\": {}, \"refs\": {}, \"cycle\": {}, \"pid\": {}, \
                 \"kernel\": {}, \"encoded_bytes\": {}}}{}",
                s.header.records,
                s.refs,
                s.header.cycle,
                s.header.pid,
                s.header.kernel,
                s.encoded_bytes,
                if i + 1 < self.segments.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"records\": {},", self.records);
        let _ = writeln!(out, "  \"refs\": {},", self.refs);
        let _ = writeln!(out, "  \"file_bytes\": {},", self.file_bytes);
        let _ = writeln!(out, "  \"raw_bytes\": {},", self.raw_bytes());
        let _ = writeln!(
            out,
            "  \"compression_ratio\": {:.4}",
            self.compression_ratio()
        );
        out.push_str("}\n");
        out
    }
}

/// Inspects a segment trace file: walks every segment with the buffered
/// reader (O(segment) memory however large the file) and tallies the
/// compression statistics.
///
/// # Errors
///
/// Any [`atum_core::TraceStreamError`] — unreadable file, bad header,
/// or a corrupt segment.
pub fn trace_info(path: &str) -> Result<TraceInfoReport, atum_core::TraceStreamError> {
    let file_bytes = std::fs::metadata(path)?.len();
    let mut rd = atum_core::SegmentReader::open(path)?;
    let mut segments = Vec::new();
    let mut records = 0u64;
    let mut refs = 0u64;
    while let Some((h, recs)) = rd.next_segment()? {
        let seg_refs = recs.iter().filter(|r| r.is_ref()).count() as u64;
        records += h.records;
        refs += seg_refs;
        segments.push(TraceSegmentInfo {
            header: h,
            encoded_bytes: h.encoded_len() + h.payload_len,
            refs: seg_refs,
        });
    }
    Ok(TraceInfoReport {
        path: path.to_string(),
        segments,
        records,
        refs,
        file_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_is_clean_on_shipped_artifacts() {
        let v = verify();
        assert_eq!(v.errors, 0, "{}", v.render());
        assert_eq!(v.findings, 0, "{}", v.render());
    }

    #[test]
    fn verify_json_is_well_formed_enough() {
        let j = verify().render_json();
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"subjects\""));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
    }

    #[test]
    fn cost_gates_pass_on_shipped_patches() {
        let c = cost_report();
        assert_eq!(c.errors, 0, "{}\n{}", c.render(), c.json);
        assert_eq!(c.findings, 0, "{}", c.render());
        assert_eq!(
            c.json.matches('{').count(),
            c.json.matches('}').count(),
            "unbalanced braces:\n{}",
            c.json
        );
    }

    #[test]
    fn trace_info_reports_segments_and_ratio() {
        use atum_core::{RecordKind, SegmentWriter, Trace, TraceRecord};
        let mut t = Trace::new();
        let mut seg = Trace::new();
        for i in 0..256u32 {
            seg.push(TraceRecord::new(
                RecordKind::IFetch,
                0x1000 + i * 4,
                4,
                1,
                false,
            ));
        }
        t.stitch(seg);
        let mut seg = Trace::new();
        seg.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, 2, true));
        for i in 0..32u32 {
            seg.push(TraceRecord::new(RecordKind::Write, 0x9000 + i, 1, 2, true));
        }
        t.stitch(seg);

        let path = std::env::temp_dir().join(format!(
            "atum-mculist-trace-info-{}.atrace",
            std::process::id()
        ));
        let mut w = SegmentWriter::create(&path).unwrap();
        w.write_trace(&t).unwrap();
        w.finish().unwrap();

        let r = trace_info(path.to_str().unwrap()).unwrap();
        assert_eq!(r.segments.len(), t.segments());
        assert_eq!(r.records, t.len() as u64);
        assert_eq!(r.refs, t.iter().filter(|rec| rec.is_ref()).count() as u64);
        // Header plus payload per segment must tile the file exactly:
        // 5-byte file header + per-segment encoded sizes.
        let sum: u64 = r.segments.iter().map(|s| s.encoded_bytes).sum();
        assert_eq!(5 + sum, r.file_bytes, "{}", r.render());
        assert!(r.compression_ratio() > 3.0, "{}", r.render());
        assert!(r.render().contains("compression"));
        let j = r.render_json();
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert!(j.contains("\"compression_ratio\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_info_rejects_garbage_files() {
        let path = std::env::temp_dir().join(format!(
            "atum-mculist-trace-bad-{}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, b"not a trace").unwrap();
        assert!(trace_info(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).ok();
        assert!(trace_info(path.to_str().unwrap()).is_err()); // missing file
    }
}
