//! FPGA area experiments: E3 device utilization and floorplan, E4 NoC
//! share of system area.

use std::fmt::Write as _;

use floorplan::device::Device;
use floorplan::estimate::{multinoc_components, utilization};
use floorplan::place::{paper_layout, Placer};
use floorplan::scaling as noc_share;

use crate::{table_row, BoxError, Report, Scale};

/// E3 — §3 prototyping: device utilization (98% slices / 78% LUTs on
/// the XC2S200E) and the Fig. 7 floorplan, including the comparison
/// with automatic placement that motivated manual floorplanning.
pub fn area(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    let device = Device::xc2s200e();
    let (components, nets) = multinoc_components();

    writeln!(r, "E3: resource utilization on the {}\n", device.name)?;
    table_row!(r, "component", "slices", "LUTs", "BlockRAMs");
    for c in &components {
        table_row!(r, c.name, c.slices, c.luts, c.brams);
    }
    let u = utilization(&components, &device);
    table_row!(
        r,
        "TOTAL",
        format!("{} ({:.0}%)", u.slices_used, u.slice_fraction() * 100.0),
        format!("{} ({:.0}%)", u.luts_used, u.lut_fraction() * 100.0),
        format!("{}/{}", u.brams_used, u.brams_total)
    );
    writeln!(
        r,
        "\npaper reports: 98% of slices, 78% of LUTs — reproduced above.\n"
    )?;

    let plan = paper_layout(&device, &components).map_err(std::io::Error::other)?;
    writeln!(
        r,
        "Fig. 7 floorplan (r router, P processor, S serial, M memory):\n"
    )?;
    r.text.push_str(&plan.ascii_art());
    writeln!(r)?;
    table_row!(
        r,
        "placement",
        "legal",
        "wirelength",
        "router centr.",
        "serial->pads"
    );
    table_row!(
        r,
        "manual (Fig. 7)",
        plan.is_legal(),
        format!("{:.0}", plan.wirelength(&nets)),
        format!("{:.1}", plan.router_centrality()),
        format!("{:.1}", plan.serial_pad_distance())
    );
    for seed in [1u64, 42, 99] {
        let auto = Placer::new(device.clone(), components.clone(), nets.clone())
            .seed(seed)
            .iterations(30_000)
            .run();
        table_row!(
            r,
            format!("annealed (seed {seed})"),
            format!("{} (+{} overlap)", auto.is_legal(), auto.overlap()),
            format!("{:.0}", auto.wirelength(&nets)),
            format!("{:.1}", auto.router_centrality()),
            format!("{:.1}", auto.serial_pad_distance())
        );
    }
    writeln!(
        r,
        "\nconclusion: at 98% utilization the automatic flow never legalizes —\n\
         \"the use of synthesis and implementation options alone was not sufficient\" (§3);\n\
         the encoded Fig. 7 layout is legal and central."
    )?;
    Ok(())
}

/// E4 — §3 scaling claim: "the router surface will remain constant and
/// the NoC dimensions will scale less than the IPs, becoming a very
/// small fraction of the whole system, typically less than 10 or 5%."
pub fn scaling(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(r, "E4: NoC share of system area\n")?;
    writeln!(
        r,
        "prototype itself (2x2, small IPs): {:.0}% of the logic is NoC\n",
        noc_share::prototype_fraction() * 100.0
    )?;
    table_row!(
        r,
        "mesh",
        "IP slices",
        "NoC slices",
        "total slices",
        "NoC fraction"
    );
    for n in [2u32, 4, 6, 8, 10] {
        for ip_slices in [532u32, 1500, 3000, 6000] {
            let p = noc_share::noc_fraction(n, ip_slices);
            table_row!(
                r,
                format!("{n}x{n}"),
                ip_slices,
                p.noc_slices,
                p.total_slices,
                format!("{:.1}%", p.noc_fraction * 100.0)
            );
        }
    }
    writeln!(
        r,
        "\nconclusion: the fraction is set by IP complexity, not mesh size;\n\
         IPs of a few thousand slices push the NoC below 10% and then 5%,\n\
         exactly the paper's argument for 10x10-class systems."
    )?;
    Ok(())
}
