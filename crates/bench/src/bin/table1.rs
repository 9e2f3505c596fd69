//! Regenerates Table I: technology cell and gate parameters, plus the
//! absolute per-component pricing each technology's [`tech::CostModel`]
//! hands the flow (the `CostTable` the engine's grids sweep).

use tech::{CostModel, Technology};
use wavepipe::ComponentKind;

fn main() {
    println!("Table I — Technology cell and gate parameters");
    println!("(paper values; relative costs per component kind)\n");
    for t in Technology::all() {
        println!("{} cell:", t.name);
        println!("  area   = {:.6} µm²", t.cell_area.value());
        println!("  delay  = {} ns", t.cell_delay.value());
        println!("  energy = {:e} fJ", t.cell_energy.value());
        println!(
            "  {:>8} {:>6} {:>6} {:>6} {:>6}",
            "relative", "INV", "MAJ", "BUF", "FOG"
        );
        println!(
            "  {:>8} {:>6} {:>6} {:>6} {:>6}",
            "area", t.inv.area, t.maj.area, t.buf.area, t.fog.area
        );
        println!(
            "  {:>8} {:>6} {:>6} {:>6} {:>6}",
            "delay", t.inv.delay, t.maj.delay, t.buf.delay, t.fog.delay
        );
        println!(
            "  {:>8} {:>6} {:>6} {:>6} {:>6}",
            "energy", t.inv.energy, t.maj.energy, t.buf.energy, t.fog.energy
        );
        println!(
            "  model knobs: phase = {:.4} ns ({}× cell delay), sense energy/output = {} fJ",
            t.phase_delay().value(),
            t.phase_weight,
            t.output_sense_energy.value()
        );
        println!(
            "  engine cache identity: {:#018x} (content hash of the cost table)",
            t.content_hash()
        );

        // The absolute pricing the flow's cost-model layer sees.
        let table = t.cost_table();
        println!("  cost table (absolute, per component):");
        println!(
            "  {:>10} {:>12} {:>12} {:>12} {:>7}",
            "kind", "area µm²", "delay ns", "energy fJ", "phases"
        );
        for kind in [
            ComponentKind::Maj,
            ComponentKind::Inv,
            ComponentKind::Buf,
            ComponentKind::Fog,
        ] {
            println!(
                "  {:>10} {:>12.6} {:>12.6} {:>12.4e} {:>7}",
                kind.to_string(),
                table.area_of(kind),
                table.delay_of(kind),
                table.energy_of(kind),
                table.phase_occupancy(kind)
            );
        }
        println!();
    }
}
