//! Where COI runs: the world a program's endpoints open in.
//!
//! The same COI client code must work from the host (native baseline), from
//! a card's uOS and from inside a VM (through vPHI) — that equivalence *is*
//! the paper's binary-compatibility property.  Every endpoint is a
//! [`Scif`], whichever world opened it; [`CoiEnv`] opens one and reads a
//! card's sysfs in its world.

use std::sync::Arc;

use vphi::builder::{VphiHost, VphiVm};
use vphi::frontend::FrontendDriver;
use vphi::guest::GuestScif;
use vphi::sysfs::GuestSysfs;
use vphi_phi::PhiBoard;
use vphi_scif::{NodeId, Scif, ScifEndpoint, ScifFabric, ScifResult, HOST_NODE};
use vphi_sim_core::Timeline;

/// Where COI client code runs: on a node of the host's fabric, or inside a
/// VM.
pub trait CoiEnv: Send + Sync {
    /// `scif_open` in this world.
    fn open(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>>;
    /// Number of cards visible.
    fn device_count(&self) -> usize;
    /// micnativeloadex's sysfs preflight: is `micN` online x100?
    fn card_usable(&self, mic: u32, tl: &mut Timeline) -> bool;
    /// A short label for reports ("native" / "node1" / "vm0").
    fn label(&self) -> String;
}

/// A process on one node of the host's fabric: the host itself (the
/// baseline) or a card's uOS (symmetric mode's card-side ranks).
pub struct NativeEnv {
    fabric: Arc<ScifFabric>,
    boards: Vec<Arc<PhiBoard>>,
    node: NodeId,
}

impl NativeEnv {
    /// A host process.
    pub fn new(host: &VphiHost) -> Self {
        Self::on_node(host, HOST_NODE)
    }

    /// A process on card `mic`.
    pub fn on_card(host: &VphiHost, mic: usize) -> Self {
        Self::on_node(host, host.device_node(mic))
    }

    fn on_node(host: &VphiHost, node: NodeId) -> Self {
        NativeEnv { fabric: Arc::clone(host.fabric()), boards: host.boards().to_vec(), node }
    }
}

impl CoiEnv for NativeEnv {
    fn open(&self, _tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        Ok(Box::new(ScifEndpoint::open(&self.fabric, self.node)?))
    }

    fn device_count(&self) -> usize {
        self.boards.len()
    }

    fn card_usable(&self, mic: u32, _tl: &mut Timeline) -> bool {
        self.boards.get(mic as usize).is_some_and(|b| b.sysfs().card_is_usable())
    }

    fn label(&self) -> String {
        if self.node == HOST_NODE {
            "native".to_string()
        } else {
            self.node.to_string()
        }
    }
}

/// The in-VM environment (everything goes through vPHI).
pub struct GuestEnv {
    driver: Arc<FrontendDriver>,
    label: String,
}

impl GuestEnv {
    pub fn new(vm: &VphiVm) -> Self {
        GuestEnv { driver: Arc::clone(vm.frontend()), label: format!("vm{}", vm.vm().id()) }
    }
}

impl CoiEnv for GuestEnv {
    fn open(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        Ok(Box::new(GuestScif::open(&self.driver, tl)?))
    }

    fn device_count(&self) -> usize {
        GuestScif::node_count(&self.driver, &mut Timeline::new())
            .map_or(0, |n| n.saturating_sub(1) as usize)
    }

    fn card_usable(&self, mic: u32, tl: &mut Timeline) -> bool {
        GuestSysfs::fetch(&self.driver, mic, tl).map(|s| s.card_is_usable()).unwrap_or(false)
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}
