#include <algorithm>
#include <iterator>
#include <string_view>

#include "apps/apps.hh"
#include "common/logging.hh"

namespace whisper::core
{

namespace
{

/** One application, under the name createApp() resolves. */
struct AppEntry
{
    std::string_view name;
    std::unique_ptr<WhisperApp> (*make)(const AppConfig &);
    /** In the suite (registeredApps()), or a test fixture. */
    bool suite;
};

/** Every app, sorted by name: the fourteen suite apps and two fixtures. */
constexpr AppEntry kApps[] = {
    {"ctree", apps::makeCtreeApp, true},
    {"echo", apps::makeEchoApp, true},
    {"exim", apps::makeEximApp, true},
    {"faulty", apps::makeFaultyApp, false},
    {"halo-hashmap", apps::makeHaloHashmapApp, true},
    {"hashmap", apps::makeHashmapApp, true},
    {"memcached", apps::makeMemcachedApp, true},
    {"mod-hashmap", apps::makeModHashmapApp, true},
    {"mod-hashmap-broken", apps::makeModHashmapBrokenApp, false},
    {"mod-vector", apps::makeModVectorApp, true},
    {"mysql", apps::makeMysqlApp, true},
    {"nfs", apps::makeNfsApp, true},
    {"redis", apps::makeRedisApp, true},
    {"tpcc", apps::makeTpccApp, true},
    {"vacation", apps::makeVacationApp, true},
    {"ycsb", apps::makeYcsbApp, true},
};

static_assert(std::is_sorted(std::begin(kApps), std::end(kApps),
                             [](const AppEntry &a, const AppEntry &b) {
                                 return a.name < b.name;
                             }),
              "kApps must stay sorted: registeredApps() keeps its order");

} // namespace

std::unique_ptr<WhisperApp>
createApp(const std::string &name, const AppConfig &config)
{
    for (const AppEntry &app : kApps)
        if (app.name == name)
            return app.make(config);
    fatal("unknown WHISPER application '%s'", name.c_str());
}

std::vector<std::string>
registeredApps()
{
    std::vector<std::string> names;
    for (const AppEntry &app : kApps)
        if (app.suite)
            names.emplace_back(app.name);
    return names;
}

} // namespace whisper::core
