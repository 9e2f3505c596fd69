//! Byte-level goldens for every buffer-insertion strategy.
//!
//! Each case maps a quick-subset circuit, restricts its fan-out to 3,
//! balances it with one [`BufferStrategy`] and verifies it with the
//! matching verifier. The golden line pins the FNV-1a hash of the
//! balanced netlist's `write_netlist` text, the insertion statistics
//! and the verification verdict — or, when balancing is impossible
//! (NML's odd inverter gaps), the error variant and its message.
//!
//! The file also holds the arrival-overflow regressions: specs whose
//! weighted arrivals exceed `u32` must fail their cell with an error,
//! never panic, wrap or exhaust memory. CI runs this file in release
//! too, where an unchecked overflow would wrap silently.

use tech::Technology;
use wavepipe::{BufferStrategy, CostTable, DelayWeights, FlowPipeline, PassError};
use wavepipe_bench::harness::{build_suite, QUICK_SUBSET};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn error_variant(e: &PassError) -> &'static str {
    match e {
        PassError::Balance(_) => "Balance",
        PassError::Weighted(_) => "Weighted",
        PassError::Netlist(_) => "Netlist",
        PassError::Equivalence(_) => "Equivalence",
        PassError::Lint(_) => "Lint",
        PassError::Custom(_) => "Custom",
    }
}

/// The strategies under test: label, strategy, and the cost model the
/// cell runs under (cost-aware strategies need one).
fn strategies() -> Vec<(String, BufferStrategy, Option<CostTable>)> {
    let mut out = vec![
        ("asap".to_owned(), BufferStrategy::Asap, None),
        ("retimed".to_owned(), BufferStrategy::Retimed, None),
        (
            "weighted(QCA)".to_owned(),
            BufferStrategy::Weighted(DelayWeights::QCA),
            None,
        ),
        (
            "weighted(NML)".to_owned(),
            BufferStrategy::Weighted(DelayWeights::NML),
            None,
        ),
    ];
    for technology in [Technology::swd(), Technology::qca(), Technology::nml()] {
        out.push((
            format!("cost-aware({})", technology.name),
            BufferStrategy::CostAware,
            Some(technology.cost_table()),
        ));
    }
    out
}

fn golden_line(
    circuit: &str,
    label: &str,
    graph: &mig::Mig,
    strategy: BufferStrategy,
    model: Option<&CostTable>,
) -> String {
    let builder = FlowPipeline::builder()
        .map(false)
        .restrict_fanout(3)
        .insert_buffers(strategy);
    let builder = match strategy {
        BufferStrategy::Asap | BufferStrategy::Retimed => builder.verify(Some(3)),
        BufferStrategy::Weighted(weights) => builder.verify_weighted(weights),
        BufferStrategy::CostAware => builder.verify_cost_aware(Some(3)),
    };
    let pipeline = builder.build().expect("well-ordered pipeline");
    match pipeline.run_with_model(graph, model) {
        Ok(run) => {
            let buffers = run.result.buffers.map_or("-".to_owned(), |b| {
                format!("{}+{}@{}", b.balancing_buffers, b.padding_buffers, b.depth)
            });
            let weighted = run.weighted.map_or("-".to_owned(), |w| {
                format!("{}@{}", w.buffers, w.weighted_depth)
            });
            let report = run.result.report.map_or("-".to_owned(), |r| {
                format!("{}/{}/{}", r.depth, r.waves_in_flight, r.max_fanout)
            });
            format!(
                "{circuit} {label}: {:016x} buffers {buffers} weighted {weighted} report {report}",
                fnv1a(&wavepipe::io::write_netlist(&run.result.pipelined)),
            )
        }
        Err(e) => format!("{circuit} {label}: error {} `{e}`", error_variant(&e)),
    }
}

const GOLDEN: &str = "\
SASC asap: 6d6ac539a14043ff buffers 3286+1023@26 weighted - report 26/9/3
SASC retimed: 1b1923f8b6146664 buffers 3246+1023@26 weighted - report 26/9/3
SASC weighted(QCA): 282f53ac976d1eb9 buffers - weighted 9428@62 report -
SASC weighted(NML): error Weighted `edge c20 → c21: delay gap 1 is not a multiple of the buffer weight 2`
SASC cost-aware(SWD): 6d6ac539a14043ff buffers 3286+1023@26 weighted - report 26/9/3
SASC cost-aware(QCA): b1e812ce0c432ddd buffers - weighted 4612@30 report -
SASC cost-aware(NML): 6d6ac539a14043ff buffers 3286+1023@26 weighted - report 26/9/3
DES_AREA asap: 306e76e577df92be buffers 12757+1073@60 weighted - report 60/20/3
DES_AREA retimed: 58772b94ad3bd725 buffers 10725+1073@60 weighted - report 60/20/3
DES_AREA weighted(QCA): 3b69c0cfad9282fc buffers - weighted 34728@161 report -
DES_AREA weighted(NML): error Weighted `edge c0 → c2462: delay gap 51 is not a multiple of the buffer weight 2`
DES_AREA cost-aware(SWD): 306e76e577df92be buffers 12757+1073@60 weighted - report 60/20/3
DES_AREA cost-aware(QCA): dc5168015d82b172 buffers - weighted 16549@76 report -
DES_AREA cost-aware(NML): 306e76e577df92be buffers 12757+1073@60 weighted - report 60/20/3
HAMMING asap: 5bb99fd825cf7ec5 buffers 4597+9@120 weighted - report 120/40/3
HAMMING retimed: c2e8c3403149bf0f buffers 4348+9@120 weighted - report 120/40/3
HAMMING weighted(QCA): 04b493241da59dc8 buffers - weighted 17140@412 report -
HAMMING weighted(NML): error Weighted `edge c11 → c161: delay gap 15 is not a multiple of the buffer weight 2`
HAMMING cost-aware(SWD): 5bb99fd825cf7ec5 buffers 4597+9@120 weighted - report 120/40/3
HAMMING cost-aware(QCA): b2bb3fbc7c7596ce buffers - weighted 7744@188 report -
HAMMING cost-aware(NML): 5bb99fd825cf7ec5 buffers 4597+9@120 weighted - report 120/40/3
ADD32R asap: f43f987ebb3777c4 buffers 1120+498@34 weighted - report 34/12/3
ADD32R retimed: f43f987ebb3777c4 buffers 1120+498@34 weighted - report 34/12/3
ADD32R weighted(QCA): df630590de02c4e0 buffers - weighted 3721@73 report -
ADD32R weighted(NML): error Weighted `edge c0 → c67: delay gap 1 is not a multiple of the buffer weight 2`
ADD32R cost-aware(SWD): f43f987ebb3777c4 buffers 1120+498@34 weighted - report 34/12/3
ADD32R cost-aware(QCA): dc4b46f4cdcb974c buffers - weighted 1812@36 report -
ADD32R cost-aware(NML): f43f987ebb3777c4 buffers 1120+498@34 weighted - report 34/12/3
MUL16 asap: e8cb0c2e91f8909c buffers 8685+826@75 weighted - report 75/25/3
MUL16 retimed: e8cb0c2e91f8909c buffers 8685+826@75 weighted - report 75/25/3
MUL16 weighted(QCA): ebc3b57c45eb49dc buffers - weighted 31542@225 report -
MUL16 weighted(NML): error Weighted `edge c33 → c33: delay gap 133 is not a multiple of the buffer weight 2`
MUL16 cost-aware(SWD): e8cb0c2e91f8909c buffers 8685+826@75 weighted - report 75/25/3
MUL16 cost-aware(QCA): 986aaebc6567658e buffers - weighted 14519@105 report -
MUL16 cost-aware(NML): e8cb0c2e91f8909c buffers 8685+826@75 weighted - report 75/25/3
ALU16 asap: 3600fe4801612d5c buffers 1227+108@24 weighted - report 24/8/3
ALU16 retimed: 319e11a930b07169 buffers 918+108@24 weighted - report 24/8/3
ALU16 weighted(QCA): 8fe2f2fc7ae3719b buffers - weighted 3459@58 report -
ALU16 weighted(NML): error Weighted `edge c33 → c351: delay gap 9 is not a multiple of the buffer weight 2`
ALU16 cost-aware(SWD): 3600fe4801612d5c buffers 1227+108@24 weighted - report 24/8/3
ALU16 cost-aware(QCA): e239b04f3242df3c buffers - weighted 1647@28 report -
ALU16 cost-aware(NML): 3600fe4801612d5c buffers 1227+108@24 weighted - report 24/8/3
CMP32 asap: 3ea7cc6bc64da696 buffers 2166+26@35 weighted - report 35/12/3
CMP32 retimed: 57d83e4f90056864 buffers 2166+1@35 weighted - report 35/12/3
CMP32 weighted(QCA): 3e1a41df408f6deb buffers - weighted 5179@80 report -
CMP32 weighted(NML): error Weighted `edge c65 → c66: delay gap 1 is not a multiple of the buffer weight 2`
CMP32 cost-aware(SWD): 3ea7cc6bc64da696 buffers 2166+26@35 weighted - report 35/12/3
CMP32 cost-aware(QCA): 114deb435786cb35 buffers - weighted 2510@39 report -
CMP32 cost-aware(NML): 3ea7cc6bc64da696 buffers 2166+26@35 weighted - report 35/12/3
CRC8x64 asap: 0321a75743a7cfbe buffers 2627+16@86 weighted - report 86/29/3
CRC8x64 retimed: bb05ed3ee4e9b968 buffers 2618+16@86 weighted - report 86/29/3
CRC8x64 weighted(QCA): 0ea9a1dc4b991c34 buffers - weighted 9952@301 report -
CRC8x64 weighted(NML): error Weighted `edge c0 → c786: delay gap 137 is not a multiple of the buffer weight 2`
CRC8x64 cost-aware(SWD): 0321a75743a7cfbe buffers 2627+16@86 weighted - report 86/29/3
CRC8x64 cost-aware(QCA): 6ee6e69e8c9e0801 buffers - weighted 4488@137 report -
CRC8x64 cost-aware(NML): 0321a75743a7cfbe buffers 2627+16@86 weighted - report 86/29/3
";

#[test]
fn every_strategy_matches_its_golden_on_the_quick_subset() {
    let suite = build_suite(Some(&QUICK_SUBSET));
    let mut lines = Vec::new();
    for (spec, graph) in &suite {
        for (label, strategy, model) in strategies() {
            lines.push(golden_line(
                spec.name,
                &label,
                graph,
                strategy,
                model.as_ref(),
            ));
        }
    }
    let actual = lines.join("\n");
    if actual != GOLDEN.trim() {
        println!("{actual}");
    }
    assert_eq!(actual, GOLDEN.trim());
}

/// Runs a one-cell spec through the engine and returns the cell's
/// failure.
fn probe(spec_json: &str) -> PassError {
    let spec = wavepipe::FlowSpec::from_json(spec_json).expect("the probe spec parses");
    let run = wavepipe::Engine::new()
        .with_resolver(benchsuite::build_mig)
        .run(&spec)
        .expect("the probe spec validates");
    assert_eq!(run.cells.len(), 1);
    run.cells
        .into_iter()
        .next()
        .and_then(|cell| cell.outcome.err())
        .expect("an overflowing arrival fails its cell")
}

fn assert_arrival_overflow(e: PassError) {
    assert!(
        matches!(
            e,
            PassError::Weighted(wavepipe::WeightedBalanceError::ArrivalOverflow { .. })
        ),
        "expected an arrival overflow, got {e:?}"
    );
}

/// A technology whose delays (or phase) make every component occupy
/// `u32::MAX` clock phases under cost-aware balancing.
fn cost_aware_probe(delay: &str, phase_delay: &str) -> String {
    format!(
        r#"{{"name":"overflow","pipeline":{{"minimize_inverters":false,"passes":[{{"pass":"restrict_fanout","limit":3}},{{"pass":"insert_buffers","strategy":"cost_aware"}},{{"pass":"verify_cost_aware","fanout_limit":3}}]}},"technologies":[{{"name":"EXTREME","area":[1,1,1,1],"delay":[{delay},{delay},{delay},{delay}],"energy":[1,1,1,1],"phase_delay":{phase_delay},"output_sense_energy":0}}],"circuits":["HAMMING"]}}"#
    )
}

#[test]
fn cost_table_delays_of_1e308_fail_the_cell_with_an_arrival_overflow() {
    assert_arrival_overflow(probe(&cost_aware_probe("1e308", "1")));
}

#[test]
fn phase_delay_of_1e_minus_300_fails_the_cell_with_an_arrival_overflow() {
    assert_arrival_overflow(probe(&cost_aware_probe("1", "1e-300")));
}

#[test]
fn u32_max_weights_fail_the_cell_instead_of_exhausting_memory() {
    // The second gate level already needs 2 × (2³² − 1) phases.
    assert_arrival_overflow(probe(
        r#"{"name":"overflow","pipeline":{"minimize_inverters":false,"passes":[{"pass":"restrict_fanout","limit":3},{"pass":"insert_buffers","strategy":{"weighted":{"inv":4294967295,"maj":4294967295,"buf":1,"fog":4294967295}}},{"pass":"verify","fanout_limit":3}]},"technologies":[],"circuits":["HAMMING"]}"#,
    ));
}
