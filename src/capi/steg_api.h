// C-compatible binding of the paper's section 4 API, function-for-function:
//
//   steg_create, steg_hide, steg_unhide, steg_connect, steg_disconnect,
//   steg_getentry, steg_addentry, steg_backup, steg_recovery
//
// plus the volume/session plumbing a C caller needs (mkfs/mount/unmount,
// read/write on connected objects, steg_stats and steg_metric
// introspection). All functions return 0 on success or a negative
// errno-style code; steg_strerror() yields the detailed message of the
// calling thread's most recent failure.
//
// Thread-safety: a mounted stegfs_volume handle is thread-safe — any
// number of threads may issue calls on one handle concurrently, and calls
// for distinct (uid, object) sessions proceed in parallel (the C++ stack
// underneath carries per-session, per-object and sharded-cache locking;
// see docs/ARCHITECTURE.md "Concurrency model"). Error messages are kept
// per thread, so steg_strerror() always describes the calling thread's own
// last failure. Only the lifecycle edges stay single-threaded: steg_mkfs,
// steg_mount, steg_recovery, and steg_unmount (which must not race any
// other call on the dying handle).
#ifndef STEGFS_CAPI_STEG_API_H_
#define STEGFS_CAPI_STEG_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct stegfs_volume stegfs_volume;

/* Error codes (negated StatusCode values). */
#define STEG_OK 0
#define STEG_ERR_NOT_FOUND -1
#define STEG_ERR_CORRUPTION -2
#define STEG_ERR_INVALID -3
#define STEG_ERR_IO -4
#define STEG_ERR_EXISTS -5
#define STEG_ERR_NOSPACE -6
#define STEG_ERR_DENIED -7
#define STEG_ERR_DATALOSS -8
#define STEG_ERR_UNSUPPORTED -9
#define STEG_ERR_PRECONDITION -10

/* Object types, as in the paper ('f' regular file, 'd' directory). */
#define STEG_TYPE_FILE 'f'
#define STEG_TYPE_DIR 'd'

/* --- volume lifecycle ------------------------------------------------- */

/* Creates + formats a volume backed by the host file `image_path`. */
int steg_mkfs(const char* image_path, uint32_t block_size,
              uint64_t num_blocks);

/* Mounts an existing volume; *out receives the handle. */
int steg_mount(const char* image_path, uint32_t block_size,
               stegfs_volume** out);

/* Flushes and releases the handle (disconnects all sessions). */
int steg_unmount(stegfs_volume* vol);

/* Detailed message of the calling thread's most recent error ("" if none).
 * The pointer stays valid until the same thread's next failing call. */
const char* steg_strerror(stegfs_volume* vol);

/* --- introspection ----------------------------------------------------- */

/* The mount's health state machine (monotonic until steg_health_reset):
 * HEALTHY -> DEGRADED on retry exhaustion or detected corruption (reads
 * and writes keep flowing, redundancy heals what it can), -> READONLY on
 * a persistent write fault (every mutating call then fails with
 * STEG_ERR_PRECONDITION until reset; reads keep working). */
#define STEG_HEALTH_HEALTHY 0
#define STEG_HEALTH_DEGRADED 1
#define STEG_HEALTH_READONLY 2

/* The headline of a mounted volume: what the metrics registry cannot
 * give. Every cumulative counter (cache, device, engine, journal,
 * redundancy, fault and health series) is read by name with steg_metric;
 * steg_metrics_text prints them all. Strings are static and never freed. */
typedef struct stegfs_stats {
  /* space report (consistent snapshot of the bitmap/inode state) */
  uint64_t block_size;
  uint64_t total_blocks;
  uint64_t metadata_blocks;
  uint64_t allocated_blocks; /* includes metadata */
  uint64_t free_blocks;
  uint64_t plain_file_bytes;
  /* names in effect for this mount */
  const char* durability;  /* "journal" or "none". A journaled mount needs
                              a write-back cache; a write-through one is
                              refused with STEG_ERR_INVALID. */
  const char* io_engine;   /* "thread-pool" (every C API mount attaches it)
                              or "sync" when no engine is attached */
  const char* crypto_tier; /* AES backend: "aes-ni" or "t-table" */
  const char* gf_tier;     /* GF(256) backend: "gfni", "pshufb" or
                              "gf-scalar" */
  int health;              /* STEG_HEALTH_* */
  const char* health_name; /* "healthy", "degraded" or "read-only" */
  /* effective readahead window in blocks; 0 when it cannot help (no
   * async engine, or no spare core for the prefetch) */
  uint32_t readahead_window;
  /* point-in-time gauges */
  uint64_t io_inflight_blocks; /* blocks in flight on the engine */
  uint64_t cache_dirty_blocks; /* dirty blocks held in the cache, not yet
                                  written back to the device */
  uint64_t journal_recovered_records; /* replayed by this mount's recovery */
  uint64_t faults_injected; /* fired by this handle's injection layer
                               (steg_mount_faulty mounts only; else 0) */
} stegfs_stats;

/* Fills *out; safe to call concurrently with any other operation. */
int steg_stats(stegfs_volume* vol, stegfs_stats* out);

/* Current value of the counter registered under `name` in the volume's
 * metrics registry, e.g. "stegfs_fault_retries_total" — any counter
 * series steg_metrics_text prints. Returns STEG_ERR_NOT_FOUND for an
 * unknown name or a histogram (histograms are in steg_metrics_text only),
 * STEG_ERR_INVALID for a null argument; *value is written only on
 * success. Safe concurrently with any other operation. */
int steg_metric(stegfs_volume* vol, const char* name, uint64_t* value);

/* --- observability ------------------------------------------------------ */

/* Everything below lives ONLY in process memory: no block on the volume
 * ever carries metrics or trace bytes, so observability state is
 * invisible to an inspector of the image (the deniability rule). */

/* Prometheus text exposition (version 0.0.4) of every instrument of this
 * volume: counters and log-bucketed latency histograms across the device,
 * buffer cache, crypto, journal, async engine, redundancy and per-op file
 * system latencies. *out receives a malloc'd NUL-terminated buffer (free
 * with steg_buffer_free); *out_len (optional) its strlen. */
int steg_metrics_text(stegfs_volume* vol, char** out, size_t* out_len);

/* Arms/disarms the volume's in-memory trace ring. While started, every
 * data-path operation records one root span plus its nested phase spans
 * (cache fills, journal barriers, crypto sub-batches, async completions).
 * The ring is fixed-size and wraps: newest spans win. */
int steg_trace_start(stegfs_volume* vol);
int steg_trace_stop(stegfs_volume* vol);

/* Exports the ring as Chrome trace-event JSON (loadable in Perfetto /
 * about:tracing). Same buffer contract as steg_metrics_text. */
int steg_trace_export(stegfs_volume* vol, char** out, size_t* out_len);

/* Releases a buffer returned by steg_metrics_text / steg_trace_export. */
void steg_buffer_free(char* buf);

/* Process-wide observability master switch (initial state comes from the
 * STEGFS_OBS environment variable: unset or != "0" means enabled).
 * Disabled, every timer and span skips the clock read entirely — the
 * remaining cost is one relaxed atomic load per instrumentation site. */
void steg_obs_set_enabled(int enabled);
int steg_obs_enabled(void);

/* Online recovery/scrub report (see docs/ARCHITECTURE.md "Journal &
 * recovery"). Unconnected hidden objects are not — cannot be — audited:
 * that would require their keys, which is the whole point. CONNECTED
 * objects with a redundancy policy ARE audited: fsck verifies their
 * shares and re-disperses any it can prove lost. */
typedef struct stegfs_fsck_report {
  uint64_t referenced_blocks;   /* reachable from plain metadata */
  uint64_t unaccounted_blocks;  /* abandoned+dummy+hidden+leaked: counted,
                                   never reclaimed (deniability) */
  uint64_t repaired_refs;       /* referenced-but-unmarked bits re-set */
  uint64_t journal_live_records;    /* records still in the ring (0 when
                                       healthy) */
  uint64_t journal_scrubbed_blocks; /* ring blocks re-noised by this run */
  /* hidden-side scrub (connected redundant objects only) */
  uint64_t hidden_objects_scanned;
  uint64_t hidden_stripes_checked;
  uint64_t hidden_degraded_stripes;     /* stripes with >=1 lost share */
  uint64_t hidden_healed_shares;        /* shares re-dispersed */
  uint64_t hidden_unrecoverable_stripes; /* losses beyond the policy bound */
  int clean;                    /* 1 when no repairs were needed */
} stegfs_fsck_report;

/* Runs the online scrubber on a mounted volume; safe alongside other
 * operations (it takes the metadata lock internally). */
int steg_fsck(stegfs_volume* vol, stegfs_fsck_report* out);

/* --- fault tolerance & degraded mode ----------------------------------- */

/* Administrative re-arm after the operator fixed the underlying device:
 * returns the state machine to HEALTHY, re-enabling writes. Counters are
 * cumulative and survive the reset. */
int steg_health_reset(stegfs_volume* vol);

/* steg_mount with a scriptable fault-injection layer between the file
 * system and the image — the chaos-testing entry point. `fault_spec` is
 * the schedule DSL (see src/fault/fault_injection_device.h):
 *
 *   spec := [ "seed=" N ";" ] rule { ";" rule }
 *   rule := op ":" kind [ "@" after ] [ "x" count ] { ":" param }
 *   op   := "read" | "write" | "sync" | "any"
 *   kind := "eio" (transient) | "fail" (persistent) | "error" (untagged)
 *           | "torn" | "flip" | "delay" | "timeout"
 *   param:= "blocks=" LO "-" HI | "us=" N
 *
 * e.g. "seed=7;write:eio@3x2;sync:fail". NULL or "" arms no faults.
 * The async engine sits above the injection layer, so its transfers
 * see the schedule like any other I/O. */
int steg_mount_faulty(const char* image_path, uint32_t block_size,
                      const char* fault_spec, stegfs_volume** out);

/* Replaces the fault schedule on a live steg_mount_faulty volume (the
 * mount-time spec is consumed by mount/recovery I/O too — inject after
 * mount to aim faults at specific operations). NULL or "" clears all
 * rules ("heal the device"). Returns STEG_ERR_INVALID on a volume not
 * mounted via steg_mount_faulty or on a malformed spec. */
int steg_fault_inject(stegfs_volume* vol, const char* fault_spec);

/* --- the paper's nine calls ------------------------------------------- */

/* Creates a hidden object of `objtype` with a fresh random FAK and records
 * (objname, FAK) in the uak's directory (created on first use). */
int steg_create(stegfs_volume* vol, const char* uid, const char* objname,
                const char* uak, char objtype);

/* Redundancy policy words for steg_create_redundant: none (the plain
 * steg_create behavior), n-way replication (tolerates n-1 lost copies),
 * or (k,n) information dispersal — n shares per k-block stripe, any k
 * reconstruct, so up to n-k lost shares heal transparently. 2 <= n <= 16;
 * for IDA additionally 2 <= k < n. */
#define STEG_RED_NONE 0u
#define STEG_RED_REPLICATE(n) (0x01000000u | ((uint32_t)(n) & 0xffu))
#define STEG_RED_IDA(k, n) \
  (0x02000000u | (((uint32_t)(k) & 0xffu) << 8) | ((uint32_t)(n) & 0xffu))

/* steg_create with an extent-protection policy, fixed for the object's
 * lifetime and persisted in its hidden header. Shares are FAK-encrypted
 * and placed like every other hidden block, so a redundant object is
 * indistinguishable from a non-redundant one without its key. */
int steg_create_redundant(stegfs_volume* vol, const char* uid,
                          const char* objname, const char* uak, char objtype,
                          uint32_t policy);
/* Converts the plain file/directory at `pathname` into a hidden object
 * (recursively for directories) and deletes the plain source. */
int steg_hide(stegfs_volume* vol, const char* uid, const char* pathname,
              const char* objname, const char* uak);
/* Converts a hidden object back into a plain file/directory at `pathname`
 * and deletes the hidden source. */
int steg_unhide(stegfs_volume* vol, const char* uid, const char* pathname,
                const char* objname, const char* uak);
/* Resolves objname through the uak's directory and makes it visible to the
 * uid session; connecting a hidden directory reveals its offspring too. */
int steg_connect(stegfs_volume* vol, const char* uid, const char* objname,
                 const char* uak);
int steg_disconnect(stegfs_volume* vol, const char* uid,
                    const char* objname);
/* Sharing: getentry writes the grantee-RSA-encrypted (objname, type, FAK)
 * record to the PLAIN file `entryfile`; addentry decrypts such a record
 * with the grantee's private key, adds it to the grantee's uak directory,
 * and destroys the entry file. The grantor never learns the grantee's UAK.
 * Keys are the serialized bytes of crypto::Rsa*Key::Serialize. */
int steg_getentry(stegfs_volume* vol, const char* uid, const char* objname,
                  const char* uak, const char* entryfile,
                  const uint8_t* pubkey, size_t pubkey_len);
int steg_addentry(stegfs_volume* vol, const char* uid,
                  const char* entryfile, const uint8_t* privkey,
                  size_t privkey_len, const char* uak);
/* Writes the backup image to the HOST file `backupfile`. */
int steg_backup(stegfs_volume* vol, const char* backupfile);
/* Recovers the HOST image file onto `image_path` (fresh volume file). */
int steg_recovery(const char* image_path, uint32_t block_size,
                  uint64_t num_blocks, const char* backupfile);

/* --- I/O on connected hidden objects + plain files --------------------- */

int steg_hidden_write(stegfs_volume* vol, const char* uid,
                      const char* objname, const void* data, size_t len);
/* Reads up to `cap` bytes; *out_len receives the byte count. */
int steg_hidden_read(stegfs_volume* vol, const char* uid,
                     const char* objname, void* buf, size_t cap,
                     size_t* out_len);
int steg_plain_write(stegfs_volume* vol, const char* path, const void* data,
                     size_t len);
int steg_plain_read(stegfs_volume* vol, const char* path, void* buf,
                    size_t cap, size_t* out_len);

/* RSA helper so pure-C callers can make key pairs for sharing. Buffers
 * receive serialized keys; *pub_len / *priv_len are in/out (capacity in,
 * size out). */
int steg_rsa_keygen(uint32_t bits, const char* seed, uint8_t* pub,
                    size_t* pub_len, uint8_t* priv, size_t* priv_len);

#ifdef __cplusplus
}  /* extern "C" */
#endif

#endif  /* STEGFS_CAPI_STEG_API_H_ */
