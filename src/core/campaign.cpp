#include "core/campaign.hpp"

#include <numeric>

#include "hydro/derive.hpp"
#include "plotfile/scanner.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace amrio::core {

model::RunMeasurements RunRecord::measurements() const {
  model::RunMeasurements m;
  AMRIO_EXPECTS_MSG(!total.per_step.empty(),
                    "run produced no output events; cannot build measurements");
  m.first_output_bytes = total.per_step.front();
  m.per_step_bytes = total.per_step;
  const double nsteps = static_cast<double>(std::max<std::size_t>(steps.size(), 1));
  m.mean_step_seconds = wall_seconds / nsteps;
  // Top-level metadata (Header + job_info) of the first plotfile, per task.
  const auto it = table.find({total.steps.front(), -1, -1});
  if (it != table.end() && inputs.nprocs > 0)
    m.metadata_bytes_per_task =
        static_cast<double>(it->second) / inputs.nprocs;
  return m;
}

void write_plot_for(const amr::AmrCore& core, std::int64_t step, double time,
                    pfs::StorageBackend& backend,
                    iostats::TraceRecorder* trace) {
  plotfile::PlotfileSpec spec;
  spec.dir = core.plotfile_name(step);
  spec.var_names = hydro::plot_var_names();
  spec.time = time;
  spec.step = step;
  spec.ref_ratio = core.inputs().ref_ratio;
  spec.job_info = "AMReX-style job_info (amrio mini-Castro)\n" +
                  core.inputs().to_inputs().to_string();

  std::vector<mesh::MultiFab> derived;
  derived.reserve(static_cast<std::size_t>(core.num_levels()));
  std::vector<plotfile::LevelPlotData> levels;
  for (int l = 0; l < core.num_levels(); ++l) {
    derived.push_back(core.derive_level(l));
    levels.push_back(plotfile::LevelPlotData{core.level(l).geom, &derived.back()});
  }
  // Event-engine write (virtual ranks sized to the widest level
  // distribution); campaigns needing threaded writes can call the
  // exec::Engine overload.
  plotfile::write_plotfile(backend, spec, levels, trace);
}

RunRecord run_case(const CaseConfig& config, const CampaignOptions& opts,
                   pfs::StorageBackend* backend) {
  RunRecord rec;
  rec.config = config;
  rec.inputs = config.to_inputs();

  std::unique_ptr<pfs::MemoryBackend> owned;
  if (backend == nullptr) {
    owned = std::make_unique<pfs::MemoryBackend>(opts.store_contents);
    backend = owned.get();
  }
  iostats::TraceRecorder trace;

  util::WallTimer timer;
  amr::AmrCore core(rec.inputs);
  core.init();
  core.run(
      [&](const amr::AmrCore& c, std::int64_t step, double time) {
        write_plot_for(c, step, time, *backend, &trace);
      },
      [&](const amr::AmrCore& c, std::int64_t step, double time) {
        if (opts.check_int <= 0 || step % opts.check_int != 0 || step == 0)
          return;
        // Checkpoint study extension: conserved state, same N-to-N tree.
        plotfile::PlotfileSpec spec;
        spec.dir = c.inputs().check_file +
                   util::zero_pad(static_cast<std::uint64_t>(step), 5);
        spec.var_names = {"density", "xmom", "ymom", "rho_E"};
        spec.time = time;
        spec.step = step;
        spec.ref_ratio = c.inputs().ref_ratio;
        spec.job_info = "checkpoint\n";
        std::vector<plotfile::LevelPlotData> levels;
        for (int l = 0; l < c.num_levels(); ++l)
          levels.push_back(
              plotfile::LevelPlotData{c.level(l).geom, &c.level(l).state});
        plotfile::write_checkpoint(*backend, spec, levels, nullptr);
      });
  rec.wall_seconds = timer.elapsed();
  rec.steps = core.history();
  rec.nlevels = core.num_levels();

  const auto scan = plotfile::scan_plotfiles(*backend, rec.inputs.plot_file);
  rec.table = scan.table;
  rec.total_bytes = scan.total_bytes;
  rec.nfiles = scan.nfiles;
  rec.total = iostats::cumulative_series(rec.table, rec.inputs.ncells0());
  const auto levels = iostats::levels_present(rec.table);
  for (int l : levels)
    rec.per_level.push_back(
        iostats::cumulative_series_level(rec.table, rec.inputs.ncells0(), l));

  AMRIO_LOG_INFO("case " << config.name << ": " << rec.total.steps.size()
                         << " outputs, " << rec.total_bytes << " bytes, "
                         << rec.wall_seconds << "s");
  return rec;
}

std::vector<RunRecord> run_campaign(std::span<const CaseConfig> cases,
                                    const CampaignOptions& opts) {
  std::vector<RunRecord> out;
  out.reserve(cases.size());
  for (const auto& c : cases) out.push_back(run_case(c, opts));
  return out;
}

}  // namespace amrio::core
