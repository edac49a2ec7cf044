//! Cache geometry configuration.

use core::fmt;

use planaria_common::BLOCK_SIZE;

use crate::ReplacementKind;

/// Geometry and policy of a set-associative cache.
///
/// # Examples
///
/// ```
/// use planaria_cache::CacheConfig;
///
/// let sc = CacheConfig::system_cache();
/// assert_eq!(sc.size_bytes, 4 << 20);
/// assert_eq!(sc.ways, 16);
/// assert_eq!(sc.sets(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// The paper's Table 1 system cache: 4 MB, 16-way, 64 B blocks, LRU.
    pub fn system_cache() -> Self {
        Self { size_bytes: 4 << 20, ways: 16, replacement: ReplacementKind::Lru }
    }

    /// A configuration with a different capacity (cache-size ablation).
    #[must_use]
    pub fn with_size(mut self, size_bytes: u64) -> Self {
        self.size_bytes = size_bytes;
        self
    }

    /// A configuration with a different replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.replacement = replacement;
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; call [`CacheConfig::validate`]
    /// first for a `Result`.
    pub fn sets(&self) -> usize {
        self.validate().expect("invalid cache config");
        (self.size_bytes / BLOCK_SIZE) as usize / self.ways
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// Checks that the geometry is consistent (non-zero, power-of-two sets).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError("ways must be non-zero".into()));
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(BLOCK_SIZE) {
            return Err(ConfigError("size must be a non-zero multiple of the block size".into()));
        }
        let blocks = self.size_bytes / BLOCK_SIZE;
        if !blocks.is_multiple_of(self.ways as u64) {
            return Err(ConfigError("size/blocks must divide evenly into ways".into()));
        }
        let sets = blocks / self.ways as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError(format!("set count {sets} is not a power of two")));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::system_cache()
    }
}

/// Error returned for inconsistent cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_cache_geometry() {
        let c = CacheConfig::system_cache();
        assert_eq!(c.sets(), 4096);
        assert_eq!(c.lines(), 65536);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_size_scales_sets() {
        let c = CacheConfig::system_cache().with_size(8 << 20);
        assert_eq!(c.sets(), 8192);
        let c = CacheConfig::system_cache().with_size(1 << 20);
        assert_eq!(c.sets(), 1024);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = CacheConfig::system_cache();
        c.ways = 0;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::system_cache();
        c.size_bytes = 100; // not a block multiple
        assert!(c.validate().is_err());
        let mut c = CacheConfig::system_cache();
        c.size_bytes = 3 << 20; // 3 MB -> non-power-of-two sets
        assert!(c.validate().is_err());
    }

    #[test]
    fn error_display() {
        let mut c = CacheConfig::system_cache();
        c.ways = 0;
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("ways"));
    }
}
