//! COIEngine — device enumeration and daemon connections.

use std::sync::Arc;

use vphi_scif::{NodeId, Scif, ScifAddr, ScifError, ScifResult};
use vphi_sim_core::Timeline;

use crate::daemon::CoiDaemon;
use crate::transport::CoiEnv;

/// A handle to one coprocessor's COI service, in either environment.
pub struct CoiEngine {
    env: Arc<dyn CoiEnv>,
    mic: usize,
}

impl std::fmt::Debug for CoiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoiEngine").field("mic", &self.mic).finish()
    }
}

impl CoiEngine {
    /// `COIEngineGetCount` + `COIEngineGetHandle`: bind to card `mic`.
    pub fn get(env: Arc<dyn CoiEnv>, mic: usize) -> ScifResult<CoiEngine> {
        if mic >= env.device_count() {
            return Err(ScifError::NoDev);
        }
        Ok(CoiEngine { env, mic })
    }

    /// SCIF node of this engine's card.
    pub fn node(&self) -> NodeId {
        NodeId(self.mic as u16 + 1)
    }

    /// Open a fresh connection to the card's coi_daemon.
    pub fn connect_daemon(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        let conn = self.env.open(tl)?;
        conn.connect(ScifAddr::new(self.node(), CoiDaemon::port(self.mic)), tl)?;
        Ok(conn)
    }
}
