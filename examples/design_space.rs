//! Hardware design-space exploration with the calibrated cost models: the
//! fragment-size / ADC ladder, cells-per-weight trade-off and ADC sharing
//! that paper §IV-C explores.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use forms::hwmodel::{AdcModel, ChipCost, McuConfig, ThroughputModel};

fn main() {
    println!("— ADC scaling (the reason FORMS wants small ADCs) —");
    let adc = AdcModel::default();
    for bits in [3u32, 4, 5, 6, 8] {
        println!(
            "  {bits}-bit @ 1.2 GHz: {:.3} mW, {:.6} mm²",
            adc.power_mw(bits, 1.2),
            adc.area_mm2(bits)
        );
    }

    println!();
    println!("— fragment-size ladder (iso-area FORMS MCUs) —");
    println!("  frag | ADC  | cycle ns | MCU mW | MCU mm²  | rel. peak GOPs");
    let isaac = ThroughputModel::baseline(McuConfig::isaac()).peak_gops();
    for fragment in [4usize, 8, 16, 32] {
        let mcu = McuConfig::forms(fragment);
        let cost = mcu.cost();
        let gops = ThroughputModel::baseline(mcu).peak_gops();
        println!(
            "  {fragment:4} | {:4} | {:8.2} | {:6.2} | {:.6} | {:.2}",
            mcu.adc_bits,
            mcu.conversion_cycle_ns(),
            cost.power_mw,
            cost.area_mm2,
            gops / isaac
        );
    }

    println!();
    println!("— bits per ReRAM cell (paper picks 2) —");
    println!("  cell bits | cells/weight (8-bit) | weights per 128-row | ADC bits needed");
    for cell_bits in [1u32, 2, 4, 8] {
        let cells = 8u32.div_ceil(cell_bits);
        let weights = 128 / cells;
        // ADC must resolve fragment_size × (2^cell_bits − 1) levels.
        let max = 8 * ((1u32 << cell_bits) - 1);
        let adc_bits = 32 - max.leading_zeros();
        println!("  {cell_bits:9} | {cells:20} | {weights:19} | {adc_bits}");
    }

    println!();
    println!("— ADC sharing (columns per ADC) —");
    println!("  ADCs/crossbar | cols per ADC | cycle ns | chip W | rel. peak GOPs");
    for adcs in [1usize, 2, 4, 8] {
        let mcu = McuConfig {
            adcs_per_crossbar: adcs,
            ..McuConfig::forms(8)
        };
        let chip = ChipCost::for_mcu(&mcu);
        let gops = ThroughputModel::baseline(mcu).peak_gops();
        println!(
            "  {adcs:13} | {:12} | {:8.2} | {:6.2} | {:.2}",
            128 / adcs,
            mcu.conversion_cycle_ns(),
            chip.total.power_mw / 1000.0,
            gops / isaac
        );
    }

    println!();
    println!(
        "The paper's design point — fragment 8, 2-bit cells, 4 ADCs per crossbar — sits at\n\
         ISAAC-level chip cost while enabling the zero-skipping gains the other experiments\n\
         quantify."
    );
}
