//! Completion-token submission types — the io_uring-shaped half of the
//! guest API.
//!
//! A guest enqueues many operations into a submission queue, rings one
//! doorbell for the whole batch, and later *reaps* completions by token.
//! This module holds the transport-agnostic vocabulary: the opaque
//! [`SubmitToken`] and the completion-queue view ([`Cq`] / [`CqEntry`])
//! the reaper fills.  The operation payloads themselves (what to send,
//! where to stage) live with the guest driver, which knows about guest
//! memory; these types deliberately do not.

use crate::error::{ScifError, ScifResult};

/// Opaque handle to one submitted operation, reaped exactly once.  The
/// guest driver packs a token as (lane, slot, generation): its request
/// slot table reuses slots, and bumps the slot's generation each time it
/// does.  A token whose generation is no longer its slot's is stale, and
/// reaping it reaps nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubmitToken(pub(crate) u64);

impl SubmitToken {
    /// Construct from the driver's raw request id.  Driver-internal;
    /// guests treat tokens as opaque.
    pub fn from_raw(raw: u64) -> Self {
        SubmitToken(raw)
    }

    /// The raw request id, for driver-side bookkeeping and trace linking.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One reaped completion.
#[derive(Debug)]
pub struct CqEntry {
    /// The token returned by submit for this operation.
    pub token: SubmitToken,
    /// The operation's wire result `(val0, val1)` — the same pair the
    /// blocking API decodes — or the error the backend reported.
    /// [`ScifError::Canceled`] means the token was reaped after its
    /// endpoint closed or its card reset.
    pub result: ScifResult<(u64, u64)>,
    /// Inbound payload (recv-style entries), drained from staging.
    pub data: Option<Vec<u8>>,
}

impl CqEntry {
    /// Whether the operation was drained as canceled rather than run for
    /// the caller.
    pub fn is_canceled(&self) -> bool {
        self.result == Err(ScifError::Canceled)
    }
}

/// A completion queue: the set of tokens a reaper is interested in plus
/// the entries reaped so far.  Plain guest-side state — no locks; the
/// caller owns it mutably across submit/reap calls.
#[derive(Debug, Default)]
pub struct Cq {
    interest: Vec<SubmitToken>,
    entries: Vec<CqEntry>,
}

impl Cq {
    pub fn new() -> Self {
        Cq::default()
    }

    /// Register tokens to reap (typically the batch submit just returned).
    pub fn watch(&mut self, tokens: &[SubmitToken]) {
        self.interest.extend_from_slice(tokens);
    }

    /// Tokens watched but not yet reaped, oldest first.
    pub fn outstanding(&self) -> &[SubmitToken] {
        &self.interest
    }

    /// Completions reaped and not yet drained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Take the reaped entries, leaving the queue ready for more.
    pub fn drain(&mut self) -> Vec<CqEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Driver-side: move `token` from interest to the completed entries.
    /// Returns false if the token was never watched (already reaped or
    /// foreign) — the exactly-once guard.
    pub fn complete(&mut self, entry: CqEntry) -> bool {
        match self.interest.iter().position(|t| *t == entry.token) {
            Some(at) => {
                self.interest.remove(at);
                self.entries.push(entry);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_order() {
        let a = SubmitToken::from_raw(1);
        let b = SubmitToken::from_raw(2);
        assert_eq!(a.raw(), 1);
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn cq_completes_each_watched_token_exactly_once() {
        let mut cq = Cq::new();
        let t = SubmitToken::from_raw(7);
        cq.watch(&[t]);
        assert_eq!(cq.outstanding(), &[t]);
        assert!(cq.complete(CqEntry { token: t, result: Ok((1, 0)), data: None }));
        // Second completion of the same token is rejected.
        assert!(!cq.complete(CqEntry { token: t, result: Ok((1, 0)), data: None }));
        assert!(cq.outstanding().is_empty());
        let drained = cq.drain();
        assert_eq!(drained.len(), 1);
        assert!(cq.is_empty());
    }

    #[test]
    fn canceled_entries_are_flagged() {
        let e = CqEntry {
            token: SubmitToken::from_raw(3),
            result: Err(ScifError::Canceled),
            data: None,
        };
        assert!(e.is_canceled());
    }
}
