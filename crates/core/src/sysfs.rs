//! Guest-side sysfs emulation.
//!
//! "Host Xeon Phi driver exposes a set of information related to the Xeon
//! Phi, such as the family codename of the accelerator, through the sysfs
//! filesystem.  Some of Intel's MPSS software runtimes and tools,
//! including micnativeloadex, rely on this information … we expose the
//! same information that is provided in the host." (paper §III)
//!
//! The frontend fetches the host table over the ring and serves it to
//! guest tools as `/sys/class/mic/micN`.  Each fetch is a snapshot: a tool
//! that must see the card's *current* state — micnativeloadex's preflight
//! refuses a card that was reset since the last launch — fetches again,
//! so a fetch is on the launch path and keeps the table as the text the
//! host sent.

use std::sync::Arc;

use vphi_scif::{ScifError, ScifResult};
use vphi_sim_core::Timeline;
use vphi_virtio::Descriptor;

use crate::frontend::FrontendDriver;
use crate::protocol::VphiRequest;

/// Room the guest stages for the host's table.
const TABLE_ROOM: u64 = 4096;

/// The guest's view of one card's sysfs attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestSysfs {
    mic_index: u32,
    /// The host's table as sent: one `key=value` per line.
    text: String,
}

impl GuestSysfs {
    /// Fetch the host's table for `micN` through the paravirtual channel.
    /// The 4 KiB response buffer is freed on every way out but one: a
    /// request given up on (`EAGAIN`) leaves it to a backend that may be
    /// slow rather than dead and still write it.
    pub fn fetch(
        driver: &Arc<FrontendDriver>,
        mic_index: u32,
        tl: &mut Timeline,
    ) -> ScifResult<GuestSysfs> {
        let kernel = driver.kernel();
        let buf = kernel.kmalloc(TABLE_ROOM, tl).map_err(|_| ScifError::NoMem)?;
        let desc = Descriptor::writable(buf.gpa.0, TABLE_ROOM as u32);
        let text = driver.transact(&VphiRequest::SysfsRead { mic_index }, &[desc], 0, tl).and_then(
            |resp| {
                let (len, _) = resp.into_result()?;
                if len > TABLE_ROOM {
                    return Err(ScifError::Inval);
                }
                let mut bytes = vec![0u8; len as usize];
                kernel.mem().read(buf.gpa, &mut bytes).map_err(|_| ScifError::Inval)?;
                String::from_utf8(bytes).map_err(|_| ScifError::Inval)
            },
        );
        if text != Err(ScifError::Again) {
            let _ = kernel.kfree(buf);
        }
        Ok(GuestSysfs { mic_index, text: text? })
    }

    pub fn mic_index(&self) -> u32 {
        self.mic_index
    }

    /// The value of `key`: lines without a `=` are skipped, keys and
    /// values are trimmed, the last of several lines for one key wins.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.text.lines().rev().find_map(|line| {
            let (k, v) = line.split_once('=')?;
            (k.trim() == key).then_some(v.trim())
        })
    }

    /// The preflight micnativeloadex performs, as on the host:
    /// [`vphi_phi::sysfs::card_is_usable`].
    pub fn card_is_usable(&self) -> bool {
        vphi_phi::sysfs::card_is_usable(|k| self.get(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn table(text: &str) -> GuestSysfs {
        GuestSysfs { mic_index: 0, text: text.to_string() }
    }

    /// The table as the frontend used to build it on every fetch — what
    /// `get` must keep answering like.
    fn parse_table(text: &str) -> BTreeMap<String, String> {
        text.lines()
            .filter_map(|line| {
                let (k, v) = line.split_once('=')?;
                Some((k.trim().to_string(), v.trim().to_string()))
            })
            .collect()
    }

    #[test]
    fn table_parser_handles_noise() {
        let t = table("a=1\nb = two \n\nmalformed-line\nc=3");
        assert_eq!(t.get("a"), Some("1"));
        assert_eq!(t.get("b"), Some("two"));
        assert_eq!(t.get("c"), Some("3"));
        assert_eq!(t.get("malformed-line"), None);
        assert_eq!(t.get(""), None);
    }

    #[test]
    fn usability_check() {
        assert!(table("state=online\nfamily=x100").card_is_usable());
        assert!(!table("state=offline\nfamily=x100").card_is_usable());
        // The last line for a key is the one that counts.
        assert!(!table("state=online\nfamily=x100\nstate=offline").card_is_usable());
    }

    proptest! {
        /// Duplicate keys, padded keys and values, empty ones, values
        /// holding `=`, lines with no `=` at all.
        #[test]
        fn get_answers_like_the_parsed_table(
            lines in prop::collection::vec(
                (0usize..6, 0usize..6, 0usize..4, any::<bool>()),
                0..12,
            ),
        ) {
            const KEYS: [&str; 6] = ["state", " state", "family ", "a=b", "", "\tsku"];
            const VALUES: [&str; 6] = ["online", " x100 ", "", "a=b", "=", "two words"];
            const SEPARATORS: [&str; 4] = ["=", " = ", "", "=="];
            let text: String = lines
                .iter()
                .map(|&(k, v, sep, crlf)| {
                    let end = if crlf { "\r\n" } else { "\n" };
                    format!("{}{}{}{end}", KEYS[k], SEPARATORS[sep], VALUES[v])
                })
                .collect();
            let model = parse_table(&text);
            let sysfs = table(&text);
            for key in KEYS.iter().map(|k| k.trim()).chain(["a", "b", "online", "missing"]) {
                let expected = model.get(key).map(String::as_str);
                prop_assert_eq!(sysfs.get(key), expected, "key {:?} of {:?}", key, text);
            }
        }
    }
}
