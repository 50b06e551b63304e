//! The `/sys/class/mic/micN` attribute surface.
//!
//! Intel MPSS tools read board attributes through sysfs before they will
//! talk to a card — micnativeloadex in particular checks family, state and
//! memory size.  The paper (§III, implementation details) notes that vPHI
//! "implement\[s\] the necessary functionality … and expose\[s\] the same
//! information that is provided in the host"; our backend does the same by
//! cloning this table into the guest.

use std::collections::BTreeMap;

use crate::spec::PhiSpec;

/// A snapshot of the sysfs attributes for one card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysfsInfo {
    attrs: BTreeMap<String, String>,
}

impl SysfsInfo {
    /// Build the attribute table MPSS expects from a board spec.
    pub fn from_spec(spec: &PhiSpec, mic_index: u32, state: &str) -> Self {
        let mut attrs = BTreeMap::new();
        let mut put = |k: &str, v: String| {
            attrs.insert(k.to_string(), v);
        };
        put("name", format!("mic{mic_index}"));
        put("family", spec.family.to_string());
        put("sku", spec.model.to_string());
        put("stepping", spec.stepping.to_string());
        put("state", state.to_string());
        put("active_cores", spec.cores.to_string());
        put("threads_per_core", spec.threads_per_core.to_string());
        put("frequency_mhz", spec.freq_mhz.to_string());
        put("memsize", spec.memory_bytes.to_string());
        put("dma_channels", spec.dma_channels.to_string());
        SysfsInfo { attrs }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    pub fn set(&mut self, key: &str, value: impl Into<String>) {
        self.attrs.insert(key.to_string(), value.into());
    }

    /// All attributes in sorted order (as `ls /sys/class/mic/mic0` shows).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_spec() {
        let info = SysfsInfo::from_spec(&PhiSpec::phi_3120p(), 0, "online");
        assert_eq!(info.get("name"), Some("mic0"));
        assert_eq!(info.get("family"), Some("x100"));
        assert_eq!(info.get("sku"), Some("3120P"));
        assert_eq!(info.get("state"), Some("online"));
        assert_eq!(info.get("active_cores"), Some("57"));
        assert_eq!(info.get("memsize"), Some(&(6u64 << 30).to_string()[..]));
        assert_eq!(info.get("nonexistent"), None);
    }

    #[test]
    fn state_can_be_updated() {
        let mut info = SysfsInfo::from_spec(&PhiSpec::phi_3120p(), 1, "offline");
        assert_eq!(info.get("name"), Some("mic1"));
        info.set("state", "online");
        assert_eq!(info.get("state"), Some("online"));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let info = SysfsInfo::from_spec(&PhiSpec::phi_3120p(), 0, "online");
        let keys: Vec<&str> = info.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(info.len(), 10);
        assert!(!info.is_empty());
    }
}
