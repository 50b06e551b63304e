//! mpi-lite — a minimal MPI-style communicator over SCIF for the
//! **symmetric** execution mode.
//!
//! "In symmetric mode Xeon Phi can be viewed as an independent node and …
//! a user can launch some processes of the same parallel application on
//! the host side and some other processes on the accelerator, using for
//! example MPI." (paper §II-A).  Intel MPI on MPSS rides on SCIF for the
//! host↔card hops, which is why vPHI supports the mode transparently.
//!
//! Topology: a star rooted at rank 0.  Rank 0 (host or VM) listens
//! ([`listen_root`]) before any other rank starts, as mpirun brings its
//! rendezvous up first; every other rank (host, VM or card) then connects
//! once and announces itself.
//! Collectives are implemented gather/scatter-at-root, the classic small-
//! world MPI fallback.

use vphi_coi::transport::CoiEnv;
use vphi_coi::wire::{read_frame, write_frame};
use vphi_scif::{NodeId, Port, Scif, ScifAddr, ScifError, ScifResult};
use vphi_sim_core::Timeline;

/// One participant in the communicator.
pub struct MpiRank {
    rank: usize,
    size: usize,
    /// Root: one link per leaf (index = leaf rank - 1).  Leaf: one link to
    /// the root.
    links: Vec<Box<dyn Scif>>,
}

impl std::fmt::Debug for MpiRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiRank").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

impl MpiRank {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    fn is_root(&self) -> bool {
        self.rank == 0
    }

    fn link_to(&self, peer: usize) -> ScifResult<&dyn Scif> {
        if self.is_root() {
            if peer == 0 || peer >= self.size {
                return Err(ScifError::Inval);
            }
            Ok(self.links[peer - 1].as_ref())
        } else {
            if peer != 0 {
                return Err(ScifError::OpNotSupported); // leaves only talk to root
            }
            Ok(self.links[0].as_ref())
        }
    }

    /// Point-to-point send (root↔leaf only, star topology): one COI frame.
    pub fn send(&self, peer: usize, data: &[u8], tl: &mut Timeline) -> ScifResult<()> {
        write_frame(self.link_to(peer)?, data, tl)
    }

    /// Point-to-point receive (blocking) of one COI frame.
    pub fn recv(&self, peer: usize, tl: &mut Timeline) -> ScifResult<Vec<u8>> {
        read_frame(self.link_to(peer)?, tl)?.ok_or(ScifError::ConnReset)
    }

    /// MPI_Barrier.
    pub fn barrier(&self, tl: &mut Timeline) -> ScifResult<()> {
        if self.is_root() {
            for peer in 1..self.size {
                self.recv(peer, tl)?;
            }
            for peer in 1..self.size {
                self.send(peer, &[1], tl)?;
            }
        } else {
            self.send(0, &[1], tl)?;
            self.recv(0, tl)?;
        }
        Ok(())
    }

    /// MPI_Allreduce(SUM) over one f64.
    pub fn allreduce_sum(&self, x: f64, tl: &mut Timeline) -> ScifResult<f64> {
        if self.is_root() {
            let mut total = x;
            for peer in 1..self.size {
                let data = self.recv(peer, tl)?;
                let bytes: [u8; 8] = data.as_slice().try_into().map_err(|_| ScifError::Inval)?;
                total += f64::from_le_bytes(bytes);
            }
            for peer in 1..self.size {
                self.send(peer, &total.to_le_bytes(), tl)?;
            }
            Ok(total)
        } else {
            self.send(0, &x.to_le_bytes(), tl)?;
            let data = self.recv(0, tl)?;
            let bytes: [u8; 8] = data.as_slice().try_into().map_err(|_| ScifError::Inval)?;
            Ok(f64::from_le_bytes(bytes))
        }
    }

    /// MPI_Gather of one f64 per rank to the root (root receives all in
    /// rank order, leaves return their own value).
    pub fn gather(&self, x: f64, tl: &mut Timeline) -> ScifResult<Vec<f64>> {
        if self.is_root() {
            let mut out = vec![x];
            for peer in 1..self.size {
                let data = self.recv(peer, tl)?;
                let bytes: [u8; 8] = data.as_slice().try_into().map_err(|_| ScifError::Inval)?;
                out.push(f64::from_le_bytes(bytes));
            }
            Ok(out)
        } else {
            self.send(0, &x.to_le_bytes(), tl)?;
            Ok(vec![x])
        }
    }
}

/// Open rank 0's port: an endpoint bound to `port` and listening, for
/// [`establish_root`].  Done before any leaf starts, so a leaf's one
/// connect finds it.
pub fn listen_root(env: &dyn CoiEnv, port: Port, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
    let listener = env.open(tl)?;
    listener.bind(port, tl)?;
    listener.listen(16, tl)?;
    Ok(listener)
}

/// Establish rank 0 on its `listener` ([`listen_root`]): accept `size - 1`
/// leaves.  Leaves announce their ranks; the world is complete when every
/// rank 1..size has checked in.
pub fn establish_root(
    listener: Box<dyn Scif>,
    size: usize,
    tl: &mut Timeline,
) -> ScifResult<MpiRank> {
    if size < 2 {
        return Err(ScifError::Inval);
    }
    let mut links: Vec<Option<Box<dyn Scif>>> = (1..size).map(|_| None).collect();
    for _ in 1..size {
        let conn = listener.accept(tl)?;
        let mut rank_bytes = [0u8; 8];
        if conn.recv(&mut rank_bytes, tl)? < 8 {
            return Err(ScifError::ConnReset);
        }
        let rank = u64::from_le_bytes(rank_bytes) as usize;
        if rank == 0 || rank >= size || links[rank - 1].is_some() {
            return Err(ScifError::Inval);
        }
        links[rank - 1] = Some(conn);
    }
    listener.close();
    Ok(MpiRank {
        rank: 0,
        size,
        links: links.into_iter().map(|l| l.expect("all ranks checked in")).collect(),
    })
}

/// Establish a leaf rank: connect to the root at `(root_node, port)` and
/// announce `rank`.  The root listens before any leaf starts
/// ([`listen_root`]), so one connect is all a leaf makes: `ECONNREFUSED`
/// means no root is there.
pub fn establish_leaf(
    env: &dyn CoiEnv,
    root_node: NodeId,
    port: Port,
    rank: usize,
    size: usize,
    tl: &mut Timeline,
) -> ScifResult<MpiRank> {
    if rank == 0 || rank >= size {
        return Err(ScifError::Inval);
    }
    let conn = env.open(tl)?;
    conn.connect(ScifAddr::new(root_node, port), tl)?;
    conn.send(&(rank as u64).to_le_bytes(), tl)?;
    Ok(MpiRank { rank, size, links: vec![conn] })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vphi::builder::VphiHost;
    use vphi_coi::NativeEnv;
    use vphi_scif::HOST_NODE;

    fn world(host: &VphiHost, port: u16, size: usize) -> Vec<std::thread::JoinHandle<Vec<f64>>> {
        // Rank 0 on the host, odd ranks on the card, even on the host —
        // the symmetric layout.  The root listens before any leaf starts.
        let env = NativeEnv::new(host);
        let mut listener = Some(listen_root(&env, Port(port), &mut Timeline::new()).unwrap());
        let mut handles = Vec::new();
        for rank in 0..size {
            let env: Arc<dyn CoiEnv> = if rank % 2 == 1 {
                Arc::new(NativeEnv::on_card(host, 0))
            } else {
                Arc::new(NativeEnv::new(host))
            };
            let listener = listener.take();
            handles.push(std::thread::spawn(move || {
                let mut tl = Timeline::new();
                let comm = match listener {
                    Some(listener) => establish_root(listener, size, &mut tl),
                    None => {
                        establish_leaf(env.as_ref(), HOST_NODE, Port(port), rank, size, &mut tl)
                    }
                }
                .unwrap();
                comm.barrier(&mut tl).unwrap();
                let sum = comm.allreduce_sum(rank as f64 + 1.0, &mut tl).unwrap();
                let gathered = comm.gather(rank as f64, &mut tl).unwrap();
                comm.barrier(&mut tl).unwrap();
                let mut out = vec![sum];
                out.extend(gathered);
                out
            }));
        }
        handles
    }

    #[test]
    fn symmetric_world_collectives() {
        let host = VphiHost::new(1);
        let size = 4;
        let results: Vec<Vec<f64>> =
            world(&host, 555, size).into_iter().map(|h| h.join().unwrap()).collect();
        // Allreduce: 1+2+3+4 = 10 on every rank.
        for r in &results {
            assert_eq!(r[0], 10.0);
        }
        // Root's gather saw every rank in order.
        let root = results.iter().find(|r| r.len() == 1 + size).unwrap();
        assert_eq!(&root[1..], &[0.0, 1.0, 2.0, 3.0]);
    }

    /// A leaf makes one connect: refused with no root listening, and with
    /// one, a VM leaf's timeline carries exactly its open, its connect and
    /// its rank announcement — one vm-exit each.
    #[test]
    fn a_leaf_connects_once() {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(vphi::builder::VmConfig::default());
        let leaf_env = vphi_coi::GuestEnv::new(&vm);
        let mut tl = Timeline::new();
        let early = establish_leaf(&leaf_env, HOST_NODE, Port(559), 1, 2, &mut tl);
        assert_eq!(early.err(), Some(ScifError::ConnRefused));

        let listener =
            listen_root(&NativeEnv::new(&host), Port(559), &mut Timeline::new()).unwrap();
        let root = std::thread::spawn(move || establish_root(listener, 2, &mut Timeline::new()));
        let mut tl = Timeline::new();
        let leaf = establish_leaf(&leaf_env, HOST_NODE, Port(559), 1, 2, &mut tl).unwrap();
        let kick = host.cost().vmexit_kick;
        assert_eq!(tl.total_for(vphi_sim_core::SpanLabel::VmExitKick), kick * 3);
        drop((leaf, root.join().unwrap().unwrap()));
        vm.shutdown();
    }

    #[test]
    fn invalid_topologies_rejected() {
        let host = VphiHost::new(1);
        let env = NativeEnv::new(&host);
        let mut tl = Timeline::new();
        let listener = listen_root(&env, Port(557), &mut tl).unwrap();
        assert!(establish_root(listener, 1, &mut tl).is_err());
        assert!(establish_leaf(&env, HOST_NODE, Port(557), 0, 4, &mut tl).is_err());
        assert!(establish_leaf(&env, HOST_NODE, Port(557), 4, 4, &mut tl).is_err());
    }
}
