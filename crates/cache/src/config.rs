//! Cache configuration.

use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Least recently used.
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Pseudo-random (deterministic xorshift seeded per cache).
    Random,
}

/// Write policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate.
    #[default]
    WriteBackAllocate,
    /// Write-through without allocation on a write miss.
    WriteThroughNoAllocate,
}

/// What the cache does about context switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchPolicy {
    /// Treat all processes as one address space (single-process studies).
    #[default]
    Ignore,
    /// Invalidate everything on a context switch (untagged cache).
    Flush,
    /// Tag lines with the process id (address-space-tagged cache).
    PidTag,
}

/// Error from configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// A validated cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub(crate) size: u32,
    pub(crate) block: u32,
    pub(crate) assoc: u32,
    pub(crate) replacement: Replacement,
    pub(crate) write: WritePolicy,
    pub(crate) switch: SwitchPolicy,
}

impl CacheConfig {
    /// Starts a builder with 16 KiB / 16 B blocks / direct-mapped.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::default()
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Block (line) size in bytes.
    pub fn block(&self) -> u32 {
        self.block
    }

    /// Associativity (ways).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.block * self.assoc)
    }

    /// Replacement policy.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write
    }

    /// Context-switch policy.
    pub fn switch_policy(&self) -> SwitchPolicy {
        self.switch
    }

    /// Returns a copy with a different size.
    ///
    /// # Panics
    ///
    /// When `size` breaks validation (not a power of two, or smaller
    /// than `block * assoc`).
    pub fn with_size(self, size: u32) -> CacheConfig {
        self.to_builder().size(size).build().expect("with_size")
    }

    /// Returns a copy with a different switch policy.
    pub fn with_switch(mut self, sw: SwitchPolicy) -> CacheConfig {
        self.switch = sw;
        self
    }

    /// Returns a copy with a different associativity.
    ///
    /// # Panics
    ///
    /// When `ways` breaks validation (not a power of two, or
    /// `block * ways` exceeding the size).
    pub fn with_assoc(self, ways: u32) -> CacheConfig {
        self.to_builder().assoc(ways).build().expect("with_assoc")
    }

    /// Returns a copy with a different block size.
    ///
    /// # Panics
    ///
    /// When `bytes` breaks validation (not a power of two, below 4, or
    /// `bytes * assoc` exceeding the size).
    pub fn with_block(self, bytes: u32) -> CacheConfig {
        self.to_builder().block(bytes).build().expect("with_block")
    }

    /// A builder holding this configuration, so a changed field goes
    /// through the builder's validation.
    fn to_builder(self) -> CacheConfigBuilder {
        CacheConfigBuilder {
            size: self.size,
            block: self.block,
            assoc: self.assoc,
            replacement: self.replacement,
            write: self.write,
            switch: self.switch,
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB, {}-way, {} B blocks, {:?}/{:?}/{:?}",
            self.size / 1024,
            self.assoc,
            self.block,
            self.replacement,
            self.write,
            self.switch
        )
    }
}

/// Builder for [`CacheConfig`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    size: u32,
    block: u32,
    assoc: u32,
    replacement: Replacement,
    write: WritePolicy,
    switch: SwitchPolicy,
}

impl Default for CacheConfigBuilder {
    fn default() -> CacheConfigBuilder {
        CacheConfigBuilder {
            size: 16 * 1024,
            block: 16,
            assoc: 1,
            replacement: Replacement::default(),
            write: WritePolicy::default(),
            switch: SwitchPolicy::default(),
        }
    }
}

impl CacheConfigBuilder {
    /// Total size in bytes (power of two).
    pub fn size(mut self, bytes: u32) -> CacheConfigBuilder {
        self.size = bytes;
        self
    }

    /// Block size in bytes (power of two, ≥ 4).
    pub fn block(mut self, bytes: u32) -> CacheConfigBuilder {
        self.block = bytes;
        self
    }

    /// Associativity (power of two; 1 = direct-mapped).
    pub fn assoc(mut self, ways: u32) -> CacheConfigBuilder {
        self.assoc = ways;
        self
    }

    /// Replacement policy.
    pub fn replacement(mut self, r: Replacement) -> CacheConfigBuilder {
        self.replacement = r;
        self
    }

    /// Write policy.
    pub fn write_policy(mut self, w: WritePolicy) -> CacheConfigBuilder {
        self.write = w;
        self
    }

    /// Context-switch policy.
    pub fn switch_policy(mut self, s: SwitchPolicy) -> CacheConfigBuilder {
        self.switch = s;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when sizes are not powers of two or inconsistent.
    pub fn build(self) -> Result<CacheConfig, ConfigError> {
        let pow2 = |v: u32| v != 0 && v & (v - 1) == 0;
        if !pow2(self.size) {
            return Err(ConfigError(format!(
                "size {} not a power of two",
                self.size
            )));
        }
        if !pow2(self.block) || self.block < 4 {
            return Err(ConfigError(format!("block {} invalid", self.block)));
        }
        if !pow2(self.assoc) {
            return Err(ConfigError(format!(
                "assoc {} not a power of two",
                self.assoc
            )));
        }
        // Checked: 2^16 ways of 2^16 B blocks would wrap to 0 and pass.
        if self
            .block
            .checked_mul(self.assoc)
            .is_none_or(|ways_bytes| ways_bytes > self.size)
        {
            return Err(ConfigError(format!(
                "{} ways of {} B blocks exceed {} B",
                self.assoc, self.block, self.size
            )));
        }
        Ok(CacheConfig {
            size: self.size,
            block: self.block,
            assoc: self.assoc,
            replacement: self.replacement,
            write: self.write,
            switch: self.switch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = CacheConfig::builder()
            .size(8192)
            .block(32)
            .assoc(4)
            .build()
            .unwrap();
        assert_eq!(c.sets(), 64);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheConfig::builder().size(3000).build().is_err());
        assert!(CacheConfig::builder().block(24).build().is_err());
        assert!(CacheConfig::builder().assoc(3).build().is_err());
    }

    #[test]
    fn rejects_oversized_ways() {
        assert!(CacheConfig::builder()
            .size(64)
            .block(32)
            .assoc(4)
            .build()
            .is_err());
        // `block * assoc` overflows u32 here; it must be an error, not
        // a panic (debug) or a wrapped product of 0 (release).
        assert!(CacheConfig::builder()
            .size(1 << 16)
            .block(1 << 16)
            .assoc(1 << 16)
            .build()
            .is_err());
    }

    #[test]
    fn with_helpers() {
        let c = CacheConfig::builder().build().unwrap();
        assert_eq!(c.with_size(4096).size(), 4096);
        assert_eq!(
            c.with_switch(SwitchPolicy::Flush).switch_policy(),
            SwitchPolicy::Flush
        );
    }

    #[test]
    fn with_size_keeps_the_set_count_a_power_of_two() {
        let base = CacheConfig::builder().block(16).assoc(2).build().unwrap();
        assert_eq!(base.with_size(4096).sets(), 128);
        for bad in [3072, 16] {
            let r = std::panic::catch_unwind(|| base.with_size(bad));
            assert!(r.is_err(), "with_size({bad}) must be rejected");
        }
    }
}
