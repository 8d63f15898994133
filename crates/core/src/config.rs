//! Protocol configuration: system parameters and the MD.1–5 / MBD.1–12 modification flags.

use crate::gc::GcPolicy;
use crate::quorum;

/// Bonomi et al.'s modifications of Dolev's reliable-communication protocol (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MdFlags {
    /// MD.1 — deliver a content received directly from its source.
    pub md1: bool,
    /// MD.2 — after delivering, discard stored paths and relay the content with an empty
    /// path to all neighbors.
    pub md2: bool,
    /// MD.3 — do not relay paths to neighbors that already delivered the content.
    pub md3: bool,
    /// MD.4 — ignore (neither relay nor analyze) paths containing the label of a neighbor
    /// that already delivered the content.
    pub md4: bool,
    /// MD.5 — stop relaying paths for a content once it has been delivered and the empty
    /// path has been forwarded.
    pub md5: bool,
}

impl MdFlags {
    /// No modification enabled (plain Dolev).
    pub fn none() -> Self {
        Self::default()
    }

    /// All of MD.1–5 enabled (the "BDopt" Dolev layer of the paper).
    pub fn all() -> Self {
        Self {
            md1: true,
            md2: true,
            md3: true,
            md4: true,
            md5: true,
        }
    }
}

/// The paper's twelve modifications of the Bracha–Dolev combination (Sec. 6, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MbdFlags {
    /// MBD.1 — associate payloads to link-local IDs so that each payload is transmitted at
    /// most once per link.
    pub mbd1: bool,
    /// MBD.2 — single-hop Send messages (+ Echo amplification).
    pub mbd2: bool,
    /// MBD.3 — merge a forwarded Echo and a newly created Echo into an Echo_Echo message.
    pub mbd3: bool,
    /// MBD.4 — merge a forwarded Echo and a newly created Ready into a Ready_Echo message.
    pub mbd4: bool,
    /// MBD.5 — optimized message formats (optional fields elided on the wire).
    pub mbd5: bool,
    /// MBD.6 — ignore Echo messages from a process whose Ready has been Dolev-delivered.
    pub mbd6: bool,
    /// MBD.7 — ignore Echo messages related to a content already BRB-delivered.
    pub mbd7: bool,
    /// MBD.8 — do not send Echo messages to a neighbor whose Ready has been Dolev-delivered.
    pub mbd8: bool,
    /// MBD.9 — do not send any message related to a content to a neighbor that delivered it
    /// (observed through 2f+1 empty-path Readys relayed by that neighbor).
    pub mbd9: bool,
    /// MBD.10 — ignore messages whose path is a superpath of an already received path.
    pub mbd10: bool,
    /// MBD.11 — only `⌈(N+f+1)/2⌉ + f` processes generate Echos and `3f+1` generate Readys
    /// (overprovisioning in Bracha); the others only relay.
    pub mbd11: bool,
    /// MBD.12 — newly created messages are sent to only `2f+1` neighbors.
    pub mbd12: bool,
}

impl MbdFlags {
    /// No modification enabled.
    pub fn none() -> Self {
        Self::default()
    }

    /// All of MBD.1–12 enabled.
    pub fn all() -> Self {
        Self::from_indices(1..=12)
    }

    /// Enables the modifications whose indices (1–12) are listed.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside `1..=12`.
    pub fn from_indices(indices: impl IntoIterator<Item = u8>) -> Self {
        let mut flags = Self::default();
        for i in indices {
            flags.set(i, true);
        }
        flags
    }

    /// Enables or disables modification `index` (1–12).
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside `1..=12`.
    pub fn set(&mut self, index: u8, enabled: bool) {
        match index {
            1 => self.mbd1 = enabled,
            2 => self.mbd2 = enabled,
            3 => self.mbd3 = enabled,
            4 => self.mbd4 = enabled,
            5 => self.mbd5 = enabled,
            6 => self.mbd6 = enabled,
            7 => self.mbd7 = enabled,
            8 => self.mbd8 = enabled,
            9 => self.mbd9 = enabled,
            10 => self.mbd10 = enabled,
            11 => self.mbd11 = enabled,
            12 => self.mbd12 = enabled,
            _ => panic!("MBD index {index} outside 1..=12"),
        }
    }

    /// Whether modification `index` (1–12) is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside `1..=12`.
    pub fn enabled(&self, index: u8) -> bool {
        match index {
            1 => self.mbd1,
            2 => self.mbd2,
            3 => self.mbd3,
            4 => self.mbd4,
            5 => self.mbd5,
            6 => self.mbd6,
            7 => self.mbd7,
            8 => self.mbd8,
            9 => self.mbd9,
            10 => self.mbd10,
            11 => self.mbd11,
            12 => self.mbd12,
            _ => panic!("MBD index {index} outside 1..=12"),
        }
    }

    /// Indices (1–12) of the enabled modifications.
    pub fn enabled_indices(&self) -> Vec<u8> {
        (1..=12).filter(|&i| self.enabled(i)).collect()
    }
}

/// Full configuration of a Bracha–Dolev process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Total number of processes `N`.
    pub n: usize,
    /// Maximum number of Byzantine processes `f` (`f < N/3`).
    pub f: usize,
    /// Dolev-layer modifications MD.1–5.
    pub md: MdFlags,
    /// Bracha–Dolev modifications MBD.1–12.
    pub mbd: MbdFlags,
    /// Bound on memoized disjoint-path combinations per content (see
    /// [`crate::disjoint::DEFAULT_MAX_COMBINATIONS`]).
    pub max_path_combinations: usize,
    /// Instance garbage collection: when a delivered broadcast's per-instance state may
    /// be retired (see [`crate::gc::GcPolicy`]). Defaults to disabled, the historical
    /// keep-everything behavior.
    pub gc: GcPolicy,
}

/// Error returned by [`Config::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `f` does not satisfy `f < N/3`.
    TooManyFaults {
        /// Number of processes.
        n: usize,
        /// Requested fault threshold.
        f: usize,
    },
    /// The system must contain at least one process.
    EmptySystem,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyFaults { n, f: faults } => {
                write!(f, "f = {faults} is not smaller than N/3 with N = {n}")
            }
            ConfigError::EmptySystem => write!(f, "the system must contain at least one process"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Plain (unoptimized) Bracha–Dolev combination: no MD, no MBD modification.
    pub fn plain(n: usize, f: usize) -> Self {
        Self {
            n,
            f,
            md: MdFlags::none(),
            mbd: MbdFlags::none(),
            max_path_combinations: crate::disjoint::DEFAULT_MAX_COMBINATIONS,
            gc: GcPolicy::DISABLED,
        }
    }

    /// Returns a copy with the instance-GC policy replaced.
    pub fn with_gc(mut self, gc: GcPolicy) -> Self {
        self.gc = gc;
        self
    }

    /// BDopt: the state-of-the-art baseline of the paper — Bracha combined with Dolev
    /// optimized by MD.1–5, without any MBD modification.
    pub fn bdopt(n: usize, f: usize) -> Self {
        Self {
            md: MdFlags::all(),
            ..Self::plain(n, f)
        }
    }

    /// BDopt + MBD.1, the reference configuration against which the impact of MBD.2–12 is
    /// reported in Table 1 and Figs. 4–10.
    pub fn bdopt_mbd1(n: usize, f: usize) -> Self {
        Self::bdopt(n, f).with_mbd(&[1])
    }

    /// The `lat.` configuration of Sec. 7.4: BDopt + MBD.1 plus the modifications that
    /// decrease latency (the five most important for latency are MBD.1, 7, 8, 9 and 2).
    pub fn latency_preset(n: usize, f: usize) -> Self {
        Self::bdopt(n, f).with_mbd(&[1, 2, 7, 8, 9])
    }

    /// The `bdw.` configuration of Sec. 7.4: BDopt + MBD.1 plus the modifications that
    /// decrease bandwidth consumption the most (MBD.1, 7, 11, 8, 9).
    pub fn bandwidth_preset(n: usize, f: usize) -> Self {
        Self::bdopt(n, f).with_mbd(&[1, 7, 8, 9, 11])
    }

    /// The `lat. & bdw.` configuration of Sec. 7.4: only the modifications that decrease
    /// both latency and bandwidth consumption.
    pub fn latency_bandwidth_preset(n: usize, f: usize) -> Self {
        Self::bdopt(n, f).with_mbd(&[1, 7, 8, 9])
    }

    /// Returns a copy of the configuration with the given MBD indices enabled in addition
    /// to the ones already set.
    pub fn with_mbd(mut self, indices: &[u8]) -> Self {
        for &i in indices {
            self.mbd.set(i, true);
        }
        self
    }

    /// Returns a copy of the configuration with the given MD flags replaced.
    pub fn with_md(mut self, md: MdFlags) -> Self {
        self.md = md;
        self
    }

    /// Checks `N >= 1` and `f < N/3`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::EmptySystem);
        }
        if self.f > quorum::max_faults(self.n) {
            return Err(ConfigError::TooManyFaults {
                n: self.n,
                f: self.f,
            });
        }
        Ok(())
    }

    /// ECHO quorum `⌈(N + f + 1)/2⌉`.
    pub fn echo_quorum(&self) -> usize {
        quorum::echo_quorum(self.n, self.f)
    }

    /// READY delivery quorum `2f + 1`.
    pub fn ready_quorum(&self) -> usize {
        quorum::ready_quorum(self.f)
    }

    /// READY amplification threshold `f + 1`.
    pub fn ready_amplification(&self) -> usize {
        quorum::ready_amplification(self.f)
    }

    /// ECHO amplification threshold `f + 1`.
    pub fn echo_amplification(&self) -> usize {
        quorum::echo_amplification(self.f)
    }

    /// Number of disjoint paths required for a Dolev delivery (`f + 1`).
    pub fn dolev_threshold(&self) -> usize {
        self.f + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_flag_constructors() {
        assert!(!MdFlags::none().md1);
        let all = MdFlags::all();
        assert!(all.md1 && all.md2 && all.md3 && all.md4 && all.md5);
    }

    #[test]
    fn mbd_from_indices_and_enabled() {
        let f = MbdFlags::from_indices([1, 7, 11]);
        assert!(f.mbd1 && f.mbd7 && f.mbd11);
        assert!(!f.mbd2);
        assert_eq!(f.enabled_indices(), vec![1, 7, 11]);
        assert!(MbdFlags::all().enabled_indices().len() == 12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn mbd_set_rejects_bad_index() {
        MbdFlags::none().set(13, true);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn mbd_enabled_rejects_bad_index() {
        MbdFlags::none().enabled(0);
    }

    #[test]
    fn presets_enable_expected_modifications() {
        let lat = Config::latency_preset(50, 10);
        assert_eq!(lat.mbd.enabled_indices(), vec![1, 2, 7, 8, 9]);
        assert_eq!(lat.md, MdFlags::all());
        let bdw = Config::bandwidth_preset(50, 10);
        assert_eq!(bdw.mbd.enabled_indices(), vec![1, 7, 8, 9, 11]);
        let both = Config::latency_bandwidth_preset(50, 10);
        assert_eq!(both.mbd.enabled_indices(), vec![1, 7, 8, 9]);
        assert_eq!(
            Config::bdopt(50, 10).mbd.enabled_indices(),
            Vec::<u8>::new()
        );
        assert_eq!(Config::bdopt_mbd1(50, 10).mbd.enabled_indices(), vec![1]);
        assert_eq!(Config::plain(50, 10).md, MdFlags::none());
    }

    #[test]
    fn validation() {
        assert!(Config::plain(10, 3).validate().is_ok());
        assert!(Config::plain(10, 4).validate().is_err());
        assert!(Config::plain(0, 0).validate().is_err());
        assert!(Config::plain(4, 1).validate().is_ok());
        assert!(Config::plain(3, 1).validate().is_err());
        let err = Config::plain(10, 4).validate().unwrap_err();
        assert!(err.to_string().contains("N/3"));
    }

    #[test]
    fn quorum_accessors_match_quorum_module() {
        let c = Config::bdopt(50, 9);
        assert_eq!(c.echo_quorum(), 30);
        assert_eq!(c.ready_quorum(), 19);
        assert_eq!(c.ready_amplification(), 10);
        assert_eq!(c.echo_amplification(), 10);
        assert_eq!(c.dolev_threshold(), 10);
    }

    #[test]
    fn with_mbd_accumulates() {
        let c = Config::bdopt_mbd1(10, 2).with_mbd(&[7, 9]);
        assert_eq!(c.mbd.enabled_indices(), vec![1, 7, 9]);
    }
}
