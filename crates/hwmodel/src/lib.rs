//! # forms-hwmodel
//!
//! Component-level area / power / timing models for the FORMS (ISCA 2021)
//! reproduction.
//!
//! The paper derives its architecture results from CACTI 7.0, NVSIM and a
//! Synopsys-synthesized skipping logic. None of those tools exist here, so
//! this crate implements *parametric analytical models anchored to the
//! component numbers the paper itself publishes* (Table III) together with
//! the paper's stated scaling rules (ADC cost grows ~exponentially with
//! resolution bits and linearly with sampling rate; sample-&-hold cost
//! scales with output levels; and so on). Everything downstream — the MCU,
//! tile and chip roll-ups of Tables III/IV and the throughput comparisons
//! of Table V — is arithmetic over these models.
//!
//! # Example
//!
//! ```
//! use forms_hwmodel::{AdcModel, McuConfig};
//!
//! let adc = AdcModel::default();
//! // An 8-bit ADC costs ~4x a 4-bit ADC at equal rate (paper §IV-C).
//! let ratio = adc.power_mw(8, 1.2) / adc.power_mw(4, 1.2);
//! assert!(ratio > 3.0 && ratio < 8.0);
//!
//! let forms = McuConfig::forms(8);
//! let isaac = McuConfig::isaac();
//! let (f, i) = (forms.cost(), isaac.cost());
//! // Iso-area design point: within ~10% of each other.
//! assert!((f.area_mm2 / i.area_mm2 - 1.0).abs() < 0.10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chip;
mod components;
mod energy;
mod mcu;
mod throughput;

pub use chip::{ChipCost, DadiannaoModel, TileCost, CHIP_TILES, MCUS_PER_TILE};
pub use components::{
    AdcModel, ComponentCost, CrossbarModel, DacModel, DigitalUnitModel, HyperTransportModel,
    RegistersModel, SampleHoldModel, ShiftAddModel, SignIndicatorModel, SkippingLogicModel,
};
pub use energy::{per_layer_energy_pj, Activity, DynamicActivity, EnergyModel};
pub use mcu::{McuConfig, McuCost};
pub use throughput::{
    published_comparators, ArchitectureThroughput, PublishedComparator, ThroughputModel,
};
